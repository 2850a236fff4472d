package ciscorx_test

import (
	"sync"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/workload"
)

// corpusPatterns collects the as-path and expanded community regexes of the
// route maps in both generated corpora, at a small scale.
func corpusPatterns(t *testing.T) (path, comm []string) {
	t.Helper()
	var cfgs []*ios.Config
	cfgs = append(cfgs, workload.Cloud(1, 10, 60).RouteMapConfigs...)
	cfgs = append(cfgs, workload.Campus(1, 10, 30).RouteMapConfigs...)
	for _, cfg := range cfgs {
		for _, l := range cfg.ASPathLists {
			for _, e := range l.Entries {
				path = append(path, e.Regex)
			}
		}
		for _, l := range cfg.CommunityLists {
			if !l.Expanded {
				continue
			}
			for _, e := range l.Entries {
				comm = append(comm, e.Values[0])
			}
		}
	}
	if len(path) == 0 || len(comm) == 0 {
		t.Fatalf("corpus has %d as-path and %d community regexes; want both", len(path), len(comm))
	}
	return path, comm
}

func TestMemoMatchesFreshCompile(t *testing.T) {
	path, comm := corpusPatterns(t)
	m := ciscorx.NewMemo()
	check := func(p string, memo, fresh func(string) (*rx.DFA, error)) {
		t.Helper()
		got, err := memo(p)
		if err != nil {
			t.Fatalf("memoized %q: %v", p, err)
		}
		want, err := fresh(p)
		if err != nil {
			t.Fatalf("fresh %q: %v", p, err)
		}
		if !got.Equal(want) {
			t.Errorf("memoized automaton for %q differs from a fresh compile", p)
		}
		again, _ := memo(p)
		if again != got {
			t.Errorf("second lookup of %q returned a different automaton", p)
		}
	}
	for _, p := range path {
		check(p, m.Path, ciscorx.CompilePath)
	}
	for _, p := range comm {
		check(p, m.Community, ciscorx.CompileCommunity)
	}
}

func TestMemoKeepsDialectsApart(t *testing.T) {
	m := ciscorx.NewMemo()
	p, err := m.Path("^1$")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Community("^1$")
	if err != nil {
		t.Fatal(err)
	}
	if p == c {
		t.Fatal("as-path and community lookups of one text share an automaton")
	}
	if got := m.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 (one per dialect)", got)
	}
}

// TestMemoSplitKey: a partition is served only for its exact pattern
// sequence. Sequences whose texts run together alike, that hold the same
// patterns in another order, or that share a prefix get partitions of
// their own.
func TestMemoSplitKey(t *testing.T) {
	m := ciscorx.NewMemo()
	split := func(patterns ...string) *rx.Split {
		dfas := make([]*rx.DFA, len(patterns))
		for i, p := range patterns {
			d, err := m.Path(p)
			if err != nil {
				t.Fatal(err)
			}
			dfas[i] = d
		}
		return m.PathSplit(patterns, dfas)
	}
	s := split("1_", "2")
	for _, other := range [][]string{{"1", "_2"}, {"2", "1_"}, {"1_"}, {"1_", "3"}, {"1_", "2", "3"}} {
		if split(other...) == s {
			t.Errorf("sequence %q was served the partition of [1_ 2]", other)
		}
	}
	if split("1_", "2") != s {
		t.Error("the same pattern sequence was not served from the table")
	}
	var nilMemo *ciscorx.Memo
	d, _ := m.Path("1_")
	if nilMemo.PathSplit([]string{"1_"}, []*rx.DFA{d}).NumClasses() != 2 {
		t.Error("a nil memo's partition of one pattern does not have two classes")
	}
}

func TestNilMemoCompiles(t *testing.T) {
	var m *ciscorx.Memo
	d, err := m.Path("_32$")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Matches(ciscorx.PathSubject([]uint32{100, 32})) {
		t.Error("nil-memo path automaton rejects [100 32]")
	}
	c, err := m.Community("_300:3_")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Matches(ciscorx.CommunitySubject("300:3")) {
		t.Error("nil-memo community automaton rejects 300:3")
	}
	if m.Len() != 0 {
		t.Errorf("nil memo Len = %d, want 0", m.Len())
	}
}

func TestMemoDoesNotCacheErrors(t *testing.T) {
	m := ciscorx.NewMemo()
	for i := 0; i < 3; i++ {
		if _, err := m.Path("("); err == nil {
			t.Fatalf("call %d: bad as-path pattern compiled", i)
		}
		if _, err := m.Community("[z"); err == nil {
			t.Fatalf("call %d: bad community pattern compiled", i)
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after only failed compiles, want 0", m.Len())
	}
}

// TestMemoConcurrentSameAutomaton races many goroutines over one pattern
// set; every caller must get the one stored automaton per pattern. Run with
// -race to check the table's locking.
func TestMemoConcurrentSameAutomaton(t *testing.T) {
	patterns := []string{"_32$", "^65000_", "_7_", "^$", "_100_"}
	m := ciscorx.NewMemo()
	const workers = 8
	got := make([][]*rx.DFA, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range patterns {
				// Each worker walks the set from a different offset so
				// first compiles collide.
				p := patterns[(i+w)%len(patterns)]
				d, err := m.Path(p)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], d)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, d := range got[w] {
			p := patterns[(i+w)%len(patterns)]
			want, _ := m.Path(p)
			if d != want {
				t.Errorf("worker %d got a different automaton for %q", w, p)
			}
		}
	}
	if m.Len() != len(patterns) {
		t.Errorf("Len = %d, want %d", m.Len(), len(patterns))
	}
}
