package bdd

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestSatCountMemoStable: the ambiguity meter counts the same regions of a
// cached pool update after update; the pool-level memo must return identical
// counts on repeat calls, including for subformulas first counted as part of
// a larger formula.
func TestSatCountMemoStable(t *testing.T) {
	const n = 6
	p := NewPool(n)
	a := p.Var(0)
	b := p.Or(a, p.Var(2))
	c := p.Or(b, p.And(p.Var(3), p.Not(p.Var(5))))

	first := map[Node]*big.Int{}
	for _, f := range []Node{c, b, a} { // large first so sub-counts are memoized
		first[f] = p.SatCount(f)
	}
	for _, f := range []Node{a, b, c} {
		if got := p.SatCount(f); got.Cmp(first[f]) != 0 {
			t.Fatalf("repeat SatCount(%d) = %v, want %v", f, got, first[f])
		}
	}
	// The memo must also stay correct as the pool grows new nodes between
	// counts (the live daemon interleaves synthesis with counting).
	d := p.Or(c, p.Var(4))
	if got, again := p.SatCount(d), p.SatCount(d); got.Cmp(again) != 0 {
		t.Fatalf("post-growth SatCount unstable: %v then %v", got, again)
	}
	if got := p.SatCount(c); got.Cmp(first[c]) != 0 {
		t.Fatalf("SatCount(c) after growth = %v, want %v", p.SatCount(c), first[c])
	}
}

// TestSatCountMemoMatchesFreshPool cross-checks memoized counts against a
// fresh pool that computes each formula cold.
func TestSatCountMemoMatchesFreshPool(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(11))
	warm := NewPool(n)
	var formulas []Node
	for i := 0; i < 30; i++ {
		formulas = append(formulas, randomBDD(rng, warm, n, 4))
	}
	// Count everything twice on the warm pool; every second pass is fully
	// memoized.
	for pass := 0; pass < 2; pass++ {
		rng2 := rand.New(rand.NewSource(11))
		cold := NewPool(n)
		for i, f := range formulas {
			want := cold.SatCount(randomBDD(rng2, cold, n, 4))
			if got := warm.SatCount(f); got.Cmp(want) != 0 {
				t.Fatalf("pass %d formula %d: warm=%v cold=%v", pass, i, got, want)
			}
		}
	}
}

// TestAddVarsInvalidatesSatMemo: sub-counts are weighted by the gap of
// skipped levels below each node, which depends on numVars — growing the
// universe must drop the memo, not serve stale counts.
func TestAddVarsInvalidatesSatMemo(t *testing.T) {
	p := NewPool(3)
	f := p.Var(0)
	if got := p.SatCount(f); got.Cmp(big.NewInt(4)) != 0 { // 2^(3-1)
		t.Fatalf("SatCount before AddVars = %v, want 4", got)
	}
	p.AddVars(2)                                            // universe is now 5 variables
	if got := p.SatCount(f); got.Cmp(big.NewInt(16)) != 0 { // 2^(5-1)
		t.Fatalf("SatCount after AddVars = %v, want 16 (memo must be dropped)", got)
	}
	// And the memo rebuilt after invalidation stays stable.
	if got := p.SatCount(f); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("repeat SatCount after AddVars = %v, want 16", got)
	}
}
