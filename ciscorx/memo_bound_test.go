package ciscorx

import (
	"fmt"
	"testing"

	"github.com/clarifynet/clarify/rx"
)

// TestMemoBounded fills one dialect's automaton table, and then its
// partition table, to the bound, as a daemon fed a fresh community per
// update eventually does; the next new key must not grow the table past the
// bound, and the table must keep serving.
func TestMemoBounded(t *testing.T) {
	m := NewMemo()
	filler, err := CompileCommunity("^0:0$")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxMemoEntries; i++ {
		m.comm[fmt.Sprintf("filler-%d", i)] = filler
	}
	d, err := m.Community("^1:1$")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Len(); n > maxMemoEntries {
		t.Fatalf("table holds %d automata, bound %d", n, maxMemoEntries)
	}
	if again, _ := m.Community("^1:1$"); again != d {
		t.Error("the pattern stored after the reset was not kept")
	}
	if !d.Matches(CommunitySubject("1:1")) {
		t.Error("automaton compiled after a reset rejects its own literal")
	}

	fillerSplit := rx.NewSplit(ValidCommunity(), []*rx.DFA{filler})
	for i := 0; i < maxMemoEntries; i++ {
		m.commSplits[fmt.Sprintf("filler-%d", i)] = fillerSplit
	}
	patterns := []string{"^1:1$"}
	s := m.CommunitySplit(patterns, []*rx.DFA{d})
	if n := len(m.commSplits); n > maxMemoEntries {
		t.Fatalf("table holds %d partitions, bound %d", n, maxMemoEntries)
	}
	if again := m.CommunitySplit(patterns, []*rx.DFA{d}); again != s {
		t.Error("the partition stored after the reset was not kept")
	}
	if c := s.ClassOf(CommunitySubject("1:1")); c < 0 || !s.In(c)[0] {
		t.Error("partition taken after a reset puts the literal outside its pattern")
	}
	if len(m.pathSplits) != 0 {
		t.Errorf("a community partition landed in the as-path table (%d entries)", len(m.pathSplits))
	}
}
