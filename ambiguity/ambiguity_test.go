package ambiguity

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"testing"

	"github.com/clarifynet/clarify/bdd"
)

func TestLog2(t *testing.T) {
	cases := []struct {
		c    *big.Int
		want float64
	}{
		{nil, 0},
		{big.NewInt(0), 0},
		{big.NewInt(-4), 0},
		{big.NewInt(1), 0},
		{big.NewInt(2), 1},
		{big.NewInt(1024), 10},
		{new(big.Int).Lsh(big.NewInt(1), 200), 200},
		{new(big.Int).Lsh(big.NewInt(3), 100), 100 + math.Log2(3)},
	}
	for i, tc := range cases {
		if got := Log2(tc.c); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("case %d: Log2(%v) = %v, want %v", i, tc.c, got, tc.want)
		}
	}
	// Log2(3) is irrational; just sanity-bound it.
	if got := Log2(big.NewInt(3)); got < 1.58 || got > 1.59 {
		t.Errorf("Log2(3) = %v, want ≈1.585", got)
	}
}

// TestMeterOneRegion: a one-probe meter measures its region's share of the
// universe, and the empty region measures 0 bits.
func TestMeterOneRegion(t *testing.T) {
	p := bdd.NewPool(8)
	for _, tc := range []struct {
		name   string
		region bdd.Node
		want   float64
	}{
		{"False", bdd.False, 0},
		{"True", bdd.True, 8},
		{"Var0", p.Var(0), 7},
	} {
		m := NewMeter(p, "route-map", "binary", []bdd.Node{tc.region})
		if got := m.led.InitialBits; got != tc.want {
			t.Errorf("InitialBits(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	if l.QuestionCount() != 0 || l.ResolvedBits() != 0 || l.Efficiency() != 0 {
		t.Error("nil ledger accessors must all return 0")
	}
}

func TestLedgerMath(t *testing.T) {
	l := &Ledger{
		InitialBits:  10,
		ResidualBits: 4,
		Questions:    []Question{{GainBits: 4}, {GainBits: 2}},
	}
	if got := l.ResolvedBits(); got != 6 {
		t.Errorf("ResolvedBits = %v, want 6", got)
	}
	if got := l.Efficiency(); got != 3 {
		t.Errorf("Efficiency = %v, want 3 bits/question", got)
	}
	// Residual above initial (shouldn't happen, but floats drift) clamps.
	bad := &Ledger{InitialBits: 1, ResidualBits: 2}
	if got := bad.ResolvedBits(); got != 0 {
		t.Errorf("ResolvedBits with residual>initial = %v, want clamped 0", got)
	}
	// No questions → efficiency is 0, never a division by zero.
	if got := (&Ledger{InitialBits: 5}).Efficiency(); got != 0 {
		t.Errorf("Efficiency without questions = %v, want 0", got)
	}
}

// regionsFor builds n distinguishing regions over an n-var pool, the
// first-match fold of its variables: region i is Var(i) ∧ ¬Var(0..i−1), so
// the regions are pairwise disjoint, as NewMeter requires.
func regionsFor(p *bdd.Pool, n int) []bdd.Node {
	regions := make([]bdd.Node, n)
	notPrev := bdd.True
	for i := 0; i < n; i++ {
		regions[i] = p.And(notPrev, p.Var(i))
		notPrev = p.And(notPrev, p.Not(p.Var(i)))
	}
	return regions
}

// directBits measures ∪ regions[lo:hi) straight off the pool: log₂ of the
// union's model count, bypassing the meter's prefix sums.
func directBits(p *bdd.Pool, regions []bdd.Node, lo, hi int) float64 {
	u := bdd.False
	for _, r := range regions[lo:hi] {
		u = p.Or(u, r)
	}
	return Log2(p.SatCount(u))
}

// TestMeterCoversBinarySearchIntervals checks the meter's bits against
// direct measurement on every interval, which includes every interval a
// binary search visits and every prefix and suffix linear search and
// top-bottom residuals read. The meter must answer these after the pool is
// released.
func TestMeterCoversBinarySearchIntervals(t *testing.T) {
	const n = 7
	p := bdd.NewPool(n)
	regions := regionsFor(p, n)
	m := NewMeter(p, "route-map", "binary", regions)
	if m.led.InitialBits != directBits(p, regions, 0, n) {
		t.Fatalf("InitialBits = %v, want %v", m.led.InitialBits, directBits(p, regions, 0, n))
	}
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			if got, want := m.rangeBits(lo, hi), directBits(p, regions, lo, hi); got != want {
				t.Errorf("rangeBits(%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
}

// TestMeterBuildsNoNodes: NewMeter counts models and adds no node to the
// pool, which may be a cached one that outlives the update.
func TestMeterBuildsNoNodes(t *testing.T) {
	const n = 6
	p := bdd.NewPool(n)
	regions := regionsFor(p, n)
	before := p.Size()
	NewMeter(p, "route-map", "binary", regions)
	if after := p.Size(); after != before {
		t.Fatalf("NewMeter grew the pool from %d to %d nodes", before, after)
	}
}

func TestMeterQuestionAndFinish(t *testing.T) {
	const n = 4
	p := bdd.NewPool(n)
	regions := regionsFor(p, n)
	m := NewMeter(p, "route-map", "binary", regions)

	// One binary-search step: undecided [0,4) narrows to [0,2).
	m.Question(0, n, 0, 2, true)
	led := m.Finish(1, 1)
	if led == nil || led.Kind != "route-map" || led.Strategy != "binary" {
		t.Fatalf("ledger = %+v, want route-map/binary", led)
	}
	if len(led.Questions) != 1 {
		t.Fatalf("questions = %d, want 1", len(led.Questions))
	}
	q := led.Questions[0]
	wantBefore := directBits(p, regions, 0, n)
	wantAfter := directBits(p, regions, 0, 2)
	if q.BeforeBits != wantBefore || q.AfterBits != wantAfter {
		t.Errorf("question bits = %v→%v, want %v→%v", q.BeforeBits, q.AfterBits, wantBefore, wantAfter)
	}
	if q.GainBits != wantBefore-wantAfter || !q.PreferNew {
		t.Errorf("gain = %v preferNew=%v, want %v true", q.GainBits, q.PreferNew, wantBefore-wantAfter)
	}
	if led.ResidualBits != 0 {
		t.Errorf("empty residual range measured %v bits, want 0", led.ResidualBits)
	}
	if led.ResolvedBits() != led.InitialBits {
		t.Errorf("fully resolved run: ResolvedBits = %v, want InitialBits %v", led.ResolvedBits(), led.InitialBits)
	}
}

func TestMeterResidual(t *testing.T) {
	const n = 5
	p := bdd.NewPool(n)
	regions := regionsFor(p, n)
	m := NewMeter(p, "acl", "top-bottom", regions)
	led := m.Finish(2, n) // probes [2,5) never asked about
	if want := directBits(p, regions, 2, n); led.ResidualBits != want {
		t.Errorf("ResidualBits = %v, want %v", led.ResidualBits, want)
	}
	if led.ResidualBits >= led.InitialBits || led.ResidualBits == 0 {
		t.Errorf("partial residual %v should be strictly between 0 and initial %v",
			led.ResidualBits, led.InitialBits)
	}
}

func TestMeterNilSafety(t *testing.T) {
	var m *Meter
	m.Question(0, 4, 0, 2, true) // must not panic
	if led := m.Finish(0, 0); led != nil {
		t.Fatalf("nil meter Finish = %+v, want nil", led)
	}
}

func TestMeterNoRegions(t *testing.T) {
	p := bdd.NewPool(3)
	m := NewMeter(p, "route-map", "binary", nil)
	led := m.Finish(0, 0)
	if led == nil || led.InitialBits != 0 || led.ResidualBits != 0 {
		t.Fatalf("empty-region ledger = %+v, want zero bits", led)
	}
}

// TestLedgerJSONDeterminism: replay byte-compares marshaled ledgers, so the
// wire form must be stable across marshal calls and round trips.
func TestLedgerJSONDeterminism(t *testing.T) {
	l := &Ledger{
		Kind: "route-map", Strategy: "binary",
		InitialBits: 12.5, ResidualBits: 0.5,
		Questions: []Question{{BeforeBits: 12.5, AfterBits: 6, GainBits: 6.5, PreferNew: true}},
	}
	a, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(l)
	if !bytes.Equal(a, b) {
		t.Fatalf("marshal not deterministic: %s vs %s", a, b)
	}
	var back Ledger
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(&back)
	if !bytes.Equal(a, c) {
		t.Fatalf("round trip changed bytes: %s vs %s", a, c)
	}
}
