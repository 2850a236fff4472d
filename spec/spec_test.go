package spec

import (
	"reflect"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ios"
)

// The paper's §2.1 spec for the SET_METRIC snippet.
func paperSpec() *RouteMapSpec {
	return &RouteMapSpec{
		Permit:    true,
		Prefix:    []string{"100.0.0.0/16:16-23"},
		Community: "/_300:3_/",
		Set:       SetSpec{Metric: U32ptr(55)},
	}
}

const paperSnippet = `ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 seq 10 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
`

func TestPaperSpecJSONRoundTrip(t *testing.T) {
	s := paperSpec()
	j := s.JSON()
	for _, want := range []string{`"permit": true`, `"100.0.0.0/16:16-23"`, `"/_300:3_/"`, `"metric": 55`} {
		if !strings.Contains(j, want) {
			t.Errorf("JSON missing %s:\n%s", want, j)
		}
	}
	back, err := ParseRouteMapSpec([]byte(j))
	if err != nil {
		t.Fatal(err)
	}
	if back.JSON() != j {
		t.Error("JSON round trip not stable")
	}
}

func TestParseRouteMapSpecRejectsUnknown(t *testing.T) {
	if _, err := ParseRouteMapSpec([]byte(`{"permit":true,"bogus":1}`)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
}

func TestVerifyPaperSnippet(t *testing.T) {
	snippet := ios.MustParse(paperSnippet)
	v, err := VerifyRouteMapSnippet(snippet, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("paper snippet should verify, got violations: %+v", v)
	}
}

func TestVerifyCatchesWrongMaskBound(t *testing.T) {
	// le 24 instead of le 23: matches 100.x/24 routes the spec excludes.
	bad := ios.MustParse(strings.Replace(paperSnippet, "le 23", "le 24", 1))
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, ExtraInput) {
		t.Fatalf("want extra-input violation, got %+v", v)
	}
}

func TestVerifyCatchesDroppedMatch(t *testing.T) {
	bad := ios.MustParse(strings.Replace(paperSnippet, " match community COM_LIST\n", "", 1))
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, ExtraInput) {
		t.Fatalf("dropping a match widens the stanza: want extra-input, got %+v", v)
	}
}

func TestVerifyCatchesNarrowedMatch(t *testing.T) {
	bad := ios.MustParse(strings.Replace(paperSnippet, "le 23", "", 1))
	// Without le 23 the entry matches only /16 exactly → misses /17../23.
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, MissedInput) {
		t.Fatalf("want missed-input violation, got %+v", v)
	}
}

func TestVerifyCatchesWrongMetric(t *testing.T) {
	bad := ios.MustParse(strings.Replace(paperSnippet, "set metric 55", "set metric 56", 1))
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, WrongAction) {
		t.Fatalf("want wrong-action violation, got %+v", v)
	}
}

func TestVerifyCatchesFlippedAction(t *testing.T) {
	bad := ios.MustParse(strings.Replace(paperSnippet, "route-map SET_METRIC permit 10", "route-map SET_METRIC deny 10", 1))
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, WrongAction) {
		t.Fatalf("want wrong-action violation, got %+v", v)
	}
}

func TestVerifyCatchesMultipleStanzas(t *testing.T) {
	bad := ios.MustParse(paperSnippet + "route-map SET_METRIC permit 20\n")
	v, err := VerifyRouteMapSnippet(bad, "SET_METRIC", paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, WrongAction) {
		t.Fatalf("want single-stanza violation, got %+v", v)
	}
}

func TestVerifyMissingMap(t *testing.T) {
	if _, err := VerifyRouteMapSnippet(ios.NewConfig(), "NOPE", paperSpec()); err == nil {
		t.Fatal("missing map should error")
	}
}

func TestSpecWithASPathAndValues(t *testing.T) {
	s := &RouteMapSpec{
		Permit:    true,
		ASPath:    "/_32$/",
		LocalPref: U32ptr(300),
		Set:       SetSpec{LocalPref: U32ptr(400), Communities: []string{"9:9"}, Additive: true},
	}
	snippet := ios.MustParse(`ip as-path access-list ASP permit _32$
route-map M permit 10
 match as-path ASP
 match local-preference 300
 set local-preference 400
 set community 9:9 additive
`)
	v, err := VerifyRouteMapSnippet(snippet, "M", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("violations: %+v", v)
	}
	// Missing the additive flag changes behaviour on routes with other
	// communities.
	bad := ios.MustParse(strings.Replace(`ip as-path access-list ASP permit _32$
route-map M permit 10
 match as-path ASP
 match local-preference 300
 set local-preference 400
 set community 9:9 additive
`, " additive", "", 1))
	v, err = VerifyRouteMapSnippet(bad, "M", s)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, WrongAction) {
		t.Fatalf("non-additive set community should violate: %+v", v)
	}
}

func TestPrefixConstraintParsing(t *testing.T) {
	good := map[string][3]int{
		"10.0.0.0/8":       {8, 8, 8},
		"10.0.0.0/8:8-24":  {8, 8, 24},
		"10.0.0.0/8:10-32": {8, 10, 32},
	}
	for in, want := range good {
		pc, err := parsePrefixConstraint(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if pc.prefix.Bits() != want[0] || pc.lo != want[1] || pc.hi != want[2] {
			t.Errorf("%s = %+v, want %v", in, pc, want)
		}
	}
	for _, bad := range []string{"10.0.0.0/8:24-8", "10.0.0.0/8:4-24", "300.0.0.0/8", "10.0.0.0/8:x-y", "10.0.0.0/8:8"} {
		if _, err := parsePrefixConstraint(bad); err == nil {
			t.Errorf("%s should fail", bad)
		}
	}
}

func TestACLSpecVerify(t *testing.T) {
	s := &ACLSpec{Permit: true, Protocol: "tcp", Src: "10.0.0.0/24", Dst: "8.8.8.8", DstPort: "eq 443"}
	good := ios.MustParse("ip access-list extended NEW\n permit tcp 10.0.0.0 0.0.0.255 host 8.8.8.8 eq 443\n")
	v, err := VerifyACLSnippet(good, "NEW", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("violations: %+v", v)
	}
	// Wrong port.
	bad := ios.MustParse("ip access-list extended NEW\n permit tcp 10.0.0.0 0.0.0.255 host 8.8.8.8 eq 80\n")
	v, err = VerifyACLSnippet(bad, "NEW", s)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, MissedInput) || !hasKind(v, ExtraInput) {
		t.Fatalf("wrong port should miss and overreach: %+v", v)
	}
	// Wrong action.
	flipped := ios.MustParse("ip access-list extended NEW\n deny tcp 10.0.0.0 0.0.0.255 host 8.8.8.8 eq 443\n")
	v, err = VerifyACLSnippet(flipped, "NEW", s)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(v, WrongAction) {
		t.Fatalf("flipped action: %+v", v)
	}
}

func TestACLSpecToACEForms(t *testing.T) {
	cases := []struct {
		spec ACLSpec
		want string
	}{
		{ACLSpec{Permit: true, Protocol: "ip", Src: "any", Dst: "any"}, "permit ip any any"},
		{ACLSpec{Permit: false, Protocol: "udp", Src: "1.2.3.4/32", Dst: "0.0.0.0/0"}, "deny udp host 1.2.3.4 any"},
		{ACLSpec{Permit: true, Protocol: "tcp", Src: "any", Dst: "any", Established: true}, "permit tcp any any established"},
	}
	for _, c := range cases {
		ace, err := c.spec.ToACE()
		if err != nil {
			t.Fatal(err)
		}
		got := ace.String()
		// Strip the sequence number prefix.
		if i := strings.Index(got, " "); i > 0 {
			got = got[i+1:]
		}
		if got != c.want {
			t.Errorf("ToACE = %q, want %q", got, c.want)
		}
	}
}

// TestToACEMatchesParse: ToACE reads its rendered line with ios.ParseACE
// instead of parsing a whole configuration. For every row the entry (Seq 10
// included) and the error text must be what parsing line as the entry of
// "ip access-list extended SPEC" gives, as ToACE did through ios.Parse.
func TestToACEMatchesParse(t *testing.T) {
	for _, c := range []struct {
		spec ACLSpec
		line string // what the spec renders to
		err  bool
	}{
		{ACLSpec{Permit: true, Protocol: "tcp", Src: "10.0.0.0/8", SrcPort: "gt 1023", Dst: "192.168.1.7", DstPort: "eq 443"},
			"permit tcp 10.0.0.0 0.255.255.255 gt 1023 host 192.168.1.7 eq 443", false},
		{ACLSpec{Protocol: "udp", Src: "any", SrcPort: "neq 53", Dst: "172.16.0.0/12", DstPort: "range 5000 6000"},
			"deny udp any neq 53 172.16.0.0 0.15.255.255 range 5000 6000", false},
		{ACLSpec{Permit: true, Protocol: "udp", Src: "1.2.3.4/32", Dst: "0.0.0.0/0", DstPort: "lt 1024"},
			"permit udp host 1.2.3.4 any lt 1024", false},
		{ACLSpec{Permit: true, Protocol: "tcp", Src: "any", Dst: "any", DstPort: "eq www", Established: true},
			"permit tcp any any eq www established", false},
		{ACLSpec{Permit: true, Protocol: "icmp", Src: "any", Dst: "10.1.0.0/16", ICMP: "echo"},
			"permit icmp any 10.1.0.0 0.0.255.255 echo", false},
		{ACLSpec{Protocol: "icmp", Src: "any", Dst: "any", ICMP: "unreachable 1"},
			"deny icmp any any unreachable 1", false},
		{ACLSpec{Protocol: "icmp", Src: "192.0.2.1", Dst: "any", ICMP: "3 4"},
			"deny icmp host 192.0.2.1 any 3 4", false},
		{ACLSpec{Permit: true, Protocol: "47", Src: "", Dst: "any"}, "permit 47 any any", false},
		{ACLSpec{Permit: true, Protocol: "tcpx", Src: "any", Dst: "any"}, "permit tcpx any any", true},
		{ACLSpec{Permit: true, Protocol: "ip", Src: "any", Dst: "any", DstPort: "eq 80"}, "permit ip any any eq 80", true},
		{ACLSpec{Permit: true, Protocol: "udp", Src: "any", Dst: "any", Established: true}, "permit udp any any established", true},
		{ACLSpec{Protocol: "tcp", Src: "10.0.0.300", Dst: "any"}, "deny tcp host 10.0.0.300 any", true},
		{ACLSpec{Protocol: "tcp", Src: "any", Dst: "10.0.0.0/33"}, "deny tcp any host 10.0.0.0/33", true},
		{ACLSpec{Protocol: "tcp", Src: "any", Dst: "any", DstPort: "range 9 8"}, "deny tcp any any range 9 8", true},
	} {
		got, err := c.spec.ToACE()
		cfg, parseErr := ios.Parse("ip access-list extended SPEC\n " + c.line + "\n")
		if (parseErr != nil) != c.err {
			t.Fatalf("%s: parse error %v, want error %v", c.line, parseErr, c.err)
		}
		if parseErr != nil {
			if want := "spec: cannot render ACE: " + parseErr.Error(); err == nil || err.Error() != want {
				t.Errorf("%+v: ToACE error %v, want %q", c.spec, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if want := cfg.ACLs["SPEC"].Entries[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: ToACE %+v, parsed %q gives %+v", c.spec, got, c.line, want)
		}
	}
}

func TestACLSpecJSONRoundTrip(t *testing.T) {
	s := &ACLSpec{Permit: true, Protocol: "tcp", Src: "any", Dst: "10.0.0.0/8", DstPort: "range 100 200"}
	back, err := ParseACLSpec([]byte(s.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *s {
		t.Errorf("round trip: %+v != %+v", back, s)
	}
}

func hasKind(vs []Violation, k ViolationKind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}
