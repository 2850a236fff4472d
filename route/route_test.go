package route

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCommunityParse(t *testing.T) {
	c, err := ParseCommunity("300:3")
	if err != nil || c.Hi != 300 || c.Lo != 3 {
		t.Fatalf("ParseCommunity: %v %v", c, err)
	}
	if c.String() != "300:3" {
		t.Errorf("String = %q", c.String())
	}
	for _, bad := range []string{"300", ":", "70000:1", "1:70000", "a:b", ""} {
		if _, err := ParseCommunity(bad); err == nil {
			t.Errorf("ParseCommunity(%q) should fail", bad)
		}
	}
}

func TestRouteBuilders(t *testing.T) {
	r := New("100.0.0.0/16").WithASPath(32).WithCommunities("300:3")
	if r.Network.String() != "100.0.0.0/16" {
		t.Errorf("network = %s", r.Network)
	}
	if r.LocalPref != 100 {
		t.Errorf("default localpref = %d", r.LocalPref)
	}
	if !r.HasCommunity(MustParseCommunity("300:3")) || r.HasCommunity(MustParseCommunity("1:1")) {
		t.Error("HasCommunity wrong")
	}
	flat := r.FlatASPath()
	if len(flat) != 1 || flat[0] != 32 {
		t.Errorf("FlatASPath = %v", flat)
	}
}

func TestNewMasksHostBits(t *testing.T) {
	r := New("10.1.2.3/8")
	if r.Network.String() != "10.0.0.0/8" {
		t.Errorf("network not masked: %s", r.Network)
	}
}

func TestAddCommunity(t *testing.T) {
	r := New("10.0.0.0/8").WithCommunities("300:3")
	r2 := r.AddCommunity(MustParseCommunity("100:1"))
	if len(r.Communities) != 1 {
		t.Error("AddCommunity mutated receiver")
	}
	if len(r2.Communities) != 2 || r2.Communities[0].String() != "100:1" {
		t.Errorf("AddCommunity result = %v", r2.Communities)
	}
	if got := r2.AddCommunity(MustParseCommunity("100:1")); len(got.Communities) != 2 {
		t.Error("duplicate community added")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New("10.0.0.0/8").WithASPath(1, 2).WithCommunities("9:9")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.ASPath[0].ASNs[0] = 7
	if a.FlatASPath()[0] == 7 {
		t.Error("clone shares path storage")
	}
	if a.Equal(b) {
		t.Error("Equal ignores path")
	}
	c := a.Clone()
	c.MED = 55
	if a.Equal(c) {
		t.Error("Equal ignores MED")
	}
}

func TestStringFormat(t *testing.T) {
	// Matches the shape of the paper's differential example output.
	r := New("100.0.0.0/16").WithASPath(32).WithCommunities("300:3")
	s := r.String()
	for _, want := range []string{
		"Network: 100.0.0.0/16",
		`"asns":[32]`,
		`Communities: ["300:3"]`,
		"Local Preference: 100",
		"Metric: 0",
		"Next Hop IP: 0.0.0.1",
		"Tag: 0",
		"Weight: 0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestMarshalJSON(t *testing.T) {
	r := New("100.0.0.0/16").WithASPath(32).WithCommunities("300:3")
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["network"] != "100.0.0.0/16" || m["localPreference"] != float64(100) {
		t.Errorf("marshal = %s", b)
	}
}
