package bdd

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// TestResetMatchesNewPool: a pool that served other work, grew its tables,
// counted models and was then Reset hands out the same handles as
// NewPool(0) for the same calls, counts the same models, and starts its
// counters at zero.
func TestResetMatchesNewPool(t *testing.T) {
	build := func(p *Pool) ([]Node, []*big.Int) {
		first := p.AddVars(16)
		rng := rand.New(rand.NewSource(11))
		var fs []Node
		for i := 0; i < 6; i++ {
			fs = append(fs, randomDNF(p, rng, 16, 8, 4))
		}
		fs = append(fs, p.Exists(fs[0], []int{first, first + 3}), NewVec(p, first+4, 8).InRange(17, 200))
		var counts []*big.Int
		for _, f := range fs {
			counts = append(counts, p.SatCount(f))
		}
		return fs, counts
	}
	fresh := NewPool(0)
	want, wantCounts := build(fresh)
	wantStats := fresh.Counters()

	used := NewPool(0)
	used.AddVars(20)
	randomDNF(used, rand.New(rand.NewSource(5)), 20, 90, 9)
	used.SatCount(used.Var(19))
	if used.Counters().Growths == 0 {
		t.Fatal("the earlier work grew no table; it must, to show Reset keeps grown tables harmless")
	}
	uniqueCap, iteCap := len(used.unique), len(used.ite)
	used.Reset()
	if used.Size() != 2 || used.NumVars() != 0 || used.Counters() != (Counters{}) || used.satMemo != nil {
		t.Fatalf("after Reset: size %d, %d vars, counters %+v, SatCount memo of %d; want 2, 0, zero, none",
			used.Size(), used.NumVars(), used.Counters(), len(used.satMemo))
	}
	if len(used.unique) != uniqueCap || len(used.ite) != iteCap {
		t.Fatalf("Reset resized the tables: unique %d → %d, ITE %d → %d", uniqueCap, len(used.unique), iteCap, len(used.ite))
	}
	got, gotCounts := build(used)
	if !slices.Equal(got, want) {
		t.Fatalf("handles after Reset %v, NewPool(0) %v", got, want)
	}
	for i := range gotCounts {
		if gotCounts[i].Cmp(wantCounts[i]) != 0 {
			t.Fatalf("SatCount(%d) after Reset %v, NewPool(0) %v", got[i], gotCounts[i], wantCounts[i])
		}
	}
	if used.Size() != fresh.Size() {
		t.Fatalf("pool size after Reset %d, NewPool(0) %d", used.Size(), fresh.Size())
	}
	// Grown tables need no doubling, so only Growths may read lower.
	st := used.Counters()
	if st.Growths > wantStats.Growths {
		t.Fatalf("growths after Reset %d, NewPool(0) %d", st.Growths, wantStats.Growths)
	}
	st.Growths = wantStats.Growths
	if st != wantStats {
		t.Fatalf("counters after Reset %+v, NewPool(0) %+v", used.Counters(), wantStats)
	}
}
