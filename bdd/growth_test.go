package bdd

import (
	"math/rand"
	"testing"
)

// randomDNF builds a random disjunction of conjunctive terms, wide enough to
// force the unique table and ITE cache through several growth cycles.
func randomDNF(p *Pool, rng *rand.Rand, nVars, nTerms, termWidth int) Node {
	f := False
	for t := 0; t < nTerms; t++ {
		term := True
		for l := 0; l < termWidth; l++ {
			v := p.Var(rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				v = p.Not(v)
			}
			term = p.And(term, v)
		}
		f = p.Or(f, term)
	}
	return f
}

// TestGrowthPreservesCanonicity drives the pool far past the initial table
// size and then checks the central hash-consing invariant: every interior
// node, looked up again by (level, lo, hi), resolves to itself.
func TestGrowthPreservesCanonicity(t *testing.T) {
	const nVars = 20
	p := NewPool(nVars)
	rng := rand.New(rand.NewSource(5))
	f := randomDNF(p, rng, nVars, 90, 9)
	if p.Size() <= initialTableSize {
		t.Fatalf("pool holds %d nodes; need > %d to exercise growth", p.Size(), initialTableSize)
	}
	for i := 2; i < len(p.nodes); i++ {
		n := p.nodes[i]
		if got := p.mk(n.level, n.lo, n.hi); got != Node(i) {
			t.Fatalf("node %d (level=%d lo=%d hi=%d) resolves to %d after growth", i, n.level, n.lo, n.hi, got)
		}
	}
	// The same function rebuilt in a fresh pool must agree pointwise.
	p2 := NewPool(nVars)
	rng2 := rand.New(rand.NewSource(5))
	f2 := randomDNF(p2, rng2, nVars, 90, 9)
	assign := make([]bool, nVars)
	for trial := 0; trial < 2000; trial++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		if p.Eval(f, assign) != p2.Eval(f2, assign) {
			t.Fatalf("rebuilt function disagrees on %v", assign)
		}
	}
}

// TestQuickExistsRestrictMemos cross-checks the slice-backed memo paths
// against their definitions: ∃v.f = f|v=0 ∨ f|v=1, on random functions big
// enough to stress the memos.
func TestQuickExistsRestrictMemos(t *testing.T) {
	const nVars = 16
	p := NewPool(nVars)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		f := randomDNF(p, rng, nVars, 30, 4)
		v := rng.Intn(nVars)
		lo := p.Restrict(f, cubeWith(nVars, v, 0))
		hi := p.Restrict(f, cubeWith(nVars, v, 1))
		if got, want := p.Exists(f, []int{v}), p.Or(lo, hi); got != want {
			t.Fatalf("trial %d: Exists(f, {%d}) != Restrict-or", trial, v)
		}
	}
}

// TestQuickSatCountAfterGrowth checks SatCount against brute-force
// enumeration on functions that have been through table growth in a pool
// with many other residents.
func TestQuickSatCountAfterGrowth(t *testing.T) {
	const nVars = 10
	p := NewPool(nVars)
	rng := rand.New(rand.NewSource(13))
	// Populate the pool past its initial tables with unrelated junk.
	randomDNF(p, rng, nVars, 600, 5)
	for trial := 0; trial < 10; trial++ {
		f := randomDNF(p, rng, nVars, 8, 3)
		want := 0
		assign := make([]bool, nVars)
		for bits := 0; bits < 1<<nVars; bits++ {
			for i := range assign {
				assign[i] = bits&(1<<i) != 0
			}
			if p.Eval(f, assign) {
				want++
			}
		}
		if got := p.SatCount(f); got.Int64() != int64(want) {
			t.Fatalf("trial %d: SatCount = %v, brute force = %d", trial, got, want)
		}
	}
}
