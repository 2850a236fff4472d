package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/workload"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric tables
// the benchmark prints from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code has %d", len(b.EndToEnd), len(e2eDefs))
	}
	for i, m := range b.EndToEnd {
		d := e2eDefs[i]
		better := map[bool]string{true: "higher", false: "lower"}[d.higher]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code has %d", len(b.PerLayer), len(layerDefs))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerDefs[i].name || m.Unit != layerDefs[i].unit {
			t.Errorf("per-layer %d: file %s %s, code %s %s", i, m.Name, m.Unit, layerDefs[i].name, layerDefs[i].unit)
		}
	}
}

// TestWorkloadsShort runs every workload at its smallest size (two rounds) as
// a traced run, which prints the end-to-end metrics of its plain round and the
// per-layer metrics of its traced one, and checks that each workload is
// correct and prints every metric BENCHMARK.json names with its unit.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmarkFile(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "all", "-seed", "1", "-seconds", "0.01", "-trace", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum jsonSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("summary %+v\nstderr:\n%s", sum, errOut.String())
	}
	want := map[string]string{"error_rate": "ratio", "mismatch_rate": "ratio"}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	text := out.String()
	for _, w := range workloads {
		block := text[strings.Index(text, "\n"+w.name+":"):]
		if next := strings.Index(block[1:], "\n\n"); next > 0 {
			block = block[:next+1]
		}
		for name, unit := range want {
			re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` +(\S+) +` + regexp.QuoteMeta(unit) + `(\s|$)`)
			m := re.FindStringSubmatch(block)
			if m == nil {
				t.Errorf("%s does not print %s in %s", w.name, name, unit)
				continue
			}
			if (name == "error_rate" || name == "mismatch_rate") && m[1] != "0.0000" {
				t.Errorf("%s %s = %s, want 0", w.name, name, m[1])
			}
		}
	}
}

// streamBytes renders the first n updates of a workload's input stream:
// intents, base configurations, target positions and targets.
func streamBytes(w workloadDef, seed int64, n int) []byte {
	var buf bytes.Buffer
	s := w.stream(seed)
	for i := 0; i < n; i++ {
		u := s.next()
		fmt.Fprintf(&buf, "%s|%s|%d|%v\n", u.name, u.intent, u.pos, u.last)
		if u.base != nil {
			buf.WriteString(u.base.Print())
		}
		buf.WriteString(u.target.Print())
	}
	return buf.Bytes()
}

// TestInputStreamsAreSeeded checks that a seed fixes a workload's inputs
// byte for byte and that another seed changes them.
func TestInputStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamBytes(w, 7, 40), streamBytes(w, 7, 40), streamBytes(w, 8, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different inputs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w.name)
		}
	}
}

// TestDeckDealsEachOncePerPass checks that a deck deals every value once in
// each pass of n draws.
func TestDeckDealsEachOncePerPass(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(3)), 7)
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for i := 0; i < 7; i++ {
			seen[d.draw()] = true
		}
		if len(seen) != 7 {
			t.Fatalf("pass %d dealt %d distinct values of 7", pass, len(seen))
		}
	}
}

// TestFreshRunShapeIgnoresSeed checks that a full-size inproc-fresh run edits
// every base the same number of times with the same update shapes whatever the
// seed, which is what keeps its question count steady across seeds.
func TestFreshRunShapeIgnoresSeed(t *testing.T) {
	shapes := func(seed int64) map[string]int {
		s := newFreshStream(seed, freshLife)
		out := map[string]int{}
		for i := 0; i < 21*5*freshLife; i++ {
			slot := s.slot
			s.next()
			out[fmt.Sprintf("%d/%+v", s.bi, s.plans[s.bi][s.order[slot]])]++
		}
		return out
	}
	a, b := shapes(7), shapes(8)
	if len(a) != freshBases*freshLife || !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 give different run shapes (%d and %d distinct)", len(a), len(b))
	}
}

// TestOracleDetectsMovedRule hands the equivalence check a configuration
// whose new rule sits one position away from the hidden target's, and
// expects a mismatch: mismatch_rate can fail.
func TestOracleDetectsMovedRule(t *testing.T) {
	// Route maps: every stanza of the community-heavy map overlaps the new
	// stanza with a different action or output.
	base := workload.Cloud(1, 0, 80).RouteMapConfigs[0]
	name := onlyName(base, false)
	in := rmIntent{permit: true, prefix: netip.MustParsePrefix("150.3.0.0/16"), le: 24, comm: "7100:5", metric: 42}
	at := func(pos int) *ios.Config {
		cfg := base.Clone()
		cfg.RouteMaps[name].InsertStanza(pos, in.stanza(cfg, "T"))
		return cfg
	}
	u := &update{name: name, intent: in.text(), target: at(0)}
	checkMoved(t, u, at(0), at(1))

	// ACLs: adjacent entries of the messy ACL alternate permit and deny over
	// overlapping port ranges.
	acls := workload.Cloud(1, workload.CloudACLCount, 0).ACLConfigs
	aclBase := acls[0]
	aclName := onlyName(aclBase, true)
	entry := aclBase.ACLs[aclName].Entries[0]
	ain := aclIntent{src: netip.MustParsePrefix("10.1.2.0/24"), proto: 6}
	aimAt(nil, &ain, &ios.ACE{Permit: entry.Permit, Protocol: entry.Protocol, Src: entry.Src, Dst: entry.Dst,
		DstPort: ios.PortSpec{Op: ios.PortEq, Lo: entry.DstPort.Lo}})
	aclAt := func(pos int) *ios.Config {
		cfg := aclBase.Clone()
		cfg.ACLs[aclName].InsertEntry(pos, ain.ace())
		return cfg
	}
	checkMoved(t, &update{acl: true, name: aclName, intent: ain.text(), target: aclAt(0)}, aclAt(0), aclAt(1))
}

func checkMoved(t *testing.T, u *update, same, moved *ios.Config) {
	t.Helper()
	if ok, err := equivalent(u, same); !ok || err != nil {
		t.Fatalf("%s: the target itself is not equivalent to the target: %v", u.name, err)
	}
	ok, err := equivalent(u, moved)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("%s: a configuration with the new rule moved one position was judged equivalent", u.name)
	}
	ok, err = verify(verdicts{}, u, moved)
	if ok || err == nil {
		t.Errorf("%s: verify accepted the moved rule", u.name)
	}
}

func TestParsePacketInvertsString(t *testing.T) {
	for _, pk := range []packet.Packet{
		{Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("192.168.0.9"), Protocol: packet.ProtoTCP, SrcPort: 1, DstPort: 443, Established: true},
		{Src: netip.MustParseAddr("0.0.0.0"), Dst: netip.MustParseAddr("255.255.255.255"), Protocol: packet.ProtoUDP, DstPort: 65535},
	} {
		got, err := parsePacket(pk.String())
		if err != nil || got != pk {
			t.Errorf("parsePacket(%q) = %+v, %v", pk.String(), got, err)
		}
	}
	if _, err := parsePacket("icmp 1.1.1.1 -> 2.2.2.2 type 8 code 0"); err == nil {
		t.Error("parsePacket accepted an ICMP witness")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

func TestParseTopSumsByPackage(t *testing.T) {
	out := `File: clarify-bench
Showing nodes accounting for 2s, 40% of 5s total
      flat  flat%   sum%        cum   cum%
     1.20s 24.00% 24.00%      1.50s 30.00%  github.com/clarifynet/clarify/rx.(*DFA).product
     300ms  6.00% 30.00%      0.90s 18.00%  github.com/clarifynet/clarify/rx.Compile.func1
     0.30s  6.00% 36.00%      2.00s 40.00%  runtime.mallocgc
     100ms  2.00% 38.00%      0.10s  2.00%  aeshashbody
     0.10s  2.00% 40.00%      0.10s  2.00%  github.com/clarifynet/clarify.(*Session).Submit
`
	got := parseTop(out)
	want := map[string]float64{
		"github.com/clarifynet/clarify/rx": 75,
		"runtime":                          20,
		"github.com/clarifynet/clarify":    5,
	}
	for pkg, pct := range want {
		if math.Abs(got[pkg]-pct) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", pkg, got[pkg], pct)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got packages %v, want %v", got, want)
	}
}
