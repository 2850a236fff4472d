package ciscorx

import (
	"fmt"
	"testing"
)

// TestMemoBounded fills one dialect's table to its bound, as a daemon fed a
// fresh community per update eventually does; the next new pattern must
// not grow the table past the bound, and the table must keep serving.
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
}
