// Package ambiguity quantifies the disambiguation loop: how large the
// candidate space of plausible insertions is before any clarifying question,
// how much each answer narrows it, and how much ambiguity remains when the
// update is accepted.
//
// The measure is model counting over the symbolic candidate space. A
// disambiguation run leaves a set of overlapping rules undecided; the union
// of their distinguishing regions (the inputs whose handling depends on the
// placement still in play) is a set of inputs, and log₂ of its model count —
// its share of the route/packet universe — is the ambiguity in bits.
// Each answered question shrinks the undecided range, and the drop in bits
// is that question's information gain. The per-update record is a Ledger;
// Rollup aggregates ledgers per strategy and per kind.
//
// The package sits above bdd and below disambig so every layer — disambig,
// clarify, journal, replay, server, lb, the offline analyzer — shares one
// ledger type without import cycles.
package ambiguity

import (
	"math"
	"math/big"

	"github.com/clarifynet/clarify/bdd"
)

// Log2 returns log₂(c) for a positive count, 0 otherwise. Counts larger
// than float64 range are handled by splitting off the bit length.
func Log2(c *big.Int) float64 {
	if c == nil || c.Sign() <= 0 {
		return 0
	}
	bl := c.BitLen()
	if bl <= 53 {
		return math.Log2(float64(c.Uint64()))
	}
	// Keep the top 53 bits of precision and add the shifted-off exponent.
	shift := uint(bl - 53)
	m := new(big.Int).Rsh(c, shift)
	return math.Log2(float64(m.Uint64())) + float64(shift)
}

// Question is the ledger entry for one answered clarifying question.
type Question struct {
	// BeforeBits and AfterBits measure the undecided candidate region
	// immediately before and after the answer.
	BeforeBits float64 `json:"beforeBits"`
	AfterBits  float64 `json:"afterBits"`
	// GainBits is the information the answer delivered (before − after,
	// clamped at zero).
	GainBits float64 `json:"gainBits"`
	// PreferNew is the user's answer: true for OPTION 1 (the new rule
	// applies to the shown input).
	PreferNew bool `json:"preferNew"`
}

// Ledger is one update's ambiguity accounting: the candidate-space
// cardinality before synthesis resolution, after each clarifying question,
// and at accept. It is persisted verbatim in journal records (schema v3)
// and byte-compared by replay, so every field must marshal
// deterministically.
type Ledger struct {
	// Kind is "route-map" or "acl".
	Kind string `json:"kind"`
	// Strategy is the insertion strategy that ran ("binary", "linear",
	// "top-bottom").
	Strategy string `json:"strategy"`
	// InitialBits is the ambiguity of the full undecided candidate region
	// before any question.
	InitialBits float64 `json:"initialBits"`
	// ResidualBits is the ambiguity left undecided when the insertion was
	// accepted (0 when the search fully resolved the range).
	ResidualBits float64 `json:"residualBits"`
	// Questions are the per-question entries, in the order asked.
	Questions []Question `json:"questions,omitempty"`
}

// QuestionCount is the number of clarifying questions asked. Nil-safe.
func (l *Ledger) QuestionCount() int {
	if l == nil {
		return 0
	}
	return len(l.Questions)
}

// ResolvedBits is the ambiguity the run eliminated: initial minus residual,
// clamped at zero. Nil-safe.
func (l *Ledger) ResolvedBits() float64 {
	if l == nil {
		return 0
	}
	r := l.InitialBits - l.ResidualBits
	if r < 0 {
		return 0
	}
	return r
}

// Efficiency is the strategy's question-efficiency score: bits resolved per
// question asked. A run that resolved everything without questions (no
// distinguishable overlaps, or an equivalence proof) scores 0 — there was
// no question to be efficient with. Nil-safe.
func (l *Ledger) Efficiency() float64 {
	if l == nil || len(l.Questions) == 0 {
		return 0
	}
	return l.ResolvedBits() / float64(len(l.Questions))
}

// Meter accumulates a Ledger while a gap search narrows the undecided probe
// range. regions[i] is the distinguishing candidate region of probe i; the
// undecided ambiguity of range [lo,hi) is log₂ of the model count of
// ∪ regions[lo:hi).
//
// The regions lie in distinct first-match regions of one rule list, so they
// are pairwise disjoint and a range's count is the sum of its regions'
// counts. NewMeter counts each region once, while the caller still holds the
// symbolic space, and keeps exact prefix sums, so Question and Finish are
// lookups and the pool can be released back to its SpaceCache before the
// first oracle round trip. All methods are no-ops on a nil Meter, so
// instrumented searches need no ledger-enabled branches and the ledger-off
// path pays nothing.
type Meter struct {
	// sums[i] is the model count of regions[0:i).
	sums []*big.Int
	led  Ledger
}

// NewMeter starts a ledger for one insertion run over the given
// distinguishing regions, measuring InitialBits over their union. The
// regions must be pairwise disjoint; NewMeter does not check it. It counts
// models and builds no node in pool.
func NewMeter(pool *bdd.Pool, kind, strategy string, regions []bdd.Node) *Meter {
	m := &Meter{sums: make([]*big.Int, len(regions)+1)}
	m.sums[0] = new(big.Int)
	for i, r := range regions {
		m.sums[i+1] = new(big.Int).Add(m.sums[i], pool.SatCount(r))
	}
	m.led.Kind = kind
	m.led.Strategy = strategy
	m.led.InitialBits = m.rangeBits(0, len(regions))
	return m
}

// rangeBits measures the undecided range [lo,hi).
func (m *Meter) rangeBits(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.sums)-1 {
		hi = len(m.sums) - 1
	}
	if lo >= hi {
		return 0
	}
	return Log2(new(big.Int).Sub(m.sums[hi], m.sums[lo]))
}

// Question records one answered question: the search's undecided range
// narrowed from [lo,hi) to [lo2,hi2).
func (m *Meter) Question(lo, hi, lo2, hi2 int, preferNew bool) {
	if m == nil {
		return
	}
	before := m.rangeBits(lo, hi)
	after := m.rangeBits(lo2, hi2)
	gain := before - after
	if gain < 0 {
		gain = 0
	}
	m.led.Questions = append(m.led.Questions, Question{
		BeforeBits: before,
		AfterBits:  after,
		GainBits:   gain,
		PreferNew:  preferNew,
	})
}

// Finish seals the ledger with the range still undecided at accept and
// returns it. Returns nil on a nil Meter.
func (m *Meter) Finish(lo, hi int) *Ledger {
	if m == nil {
		return nil
	}
	m.led.ResidualBits = m.rangeBits(lo, hi)
	return &m.led
}
