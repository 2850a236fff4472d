package server

import (
	"sync"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/internal/promtext"
)

// ambiguityBitsBuckets are the value-histogram upper bounds, in bits, for
// the information-gain and residual-ambiguity distributions. Route-map and
// ACL candidate spaces are packet universes, so per-question gains of a few
// bits and residuals up to the full space (tens of bits) both need
// resolution; the last implicit bucket is +Inf.
var ambiguityBitsBuckets = []float64{0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// questionCountBuckets are the value-histogram upper bounds for questions
// asked per metered update. Binary search keeps this logarithmic in the
// overlap count, so small buckets dominate; the tail catches linear-probing
// baselines.
var questionCountBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}

// ambiguityMetrics aggregates the disambiguation information-gain ledgers
// the pipeline attaches to completed updates: one rollup and the three
// value histograms the telemetry exposes. All methods are safe for
// concurrent use.
type ambiguityMetrics struct {
	mu     sync.Mutex
	rollup *ambiguity.Rollup
	// bitsPerQuestion observes each question's information gain; the other
	// two observe once per metered update.
	bitsPerQuestion    *Histogram
	questionsPerUpdate *Histogram
	residualBits       *Histogram
}

func newAmbiguityMetrics() *ambiguityMetrics {
	return &ambiguityMetrics{
		rollup:             ambiguity.NewRollup(),
		bitsPerQuestion:    NewHistogram(ambiguityBitsBuckets),
		questionsPerUpdate: NewHistogram(questionCountBuckets),
		residualBits:       NewHistogram(ambiguityBitsBuckets),
	}
}

// record folds one update's ledger in. Nil ledgers (updates that never
// reached disambiguation, or ran untraced) are ignored.
func (a *ambiguityMetrics) record(l *ambiguity.Ledger) {
	if l == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rollup.Add(l)
	for _, q := range l.Questions {
		a.bitsPerQuestion.add(q.GainBits)
	}
	a.questionsPerUpdate.add(float64(l.QuestionCount()))
	a.residualBits.add(l.ResidualBits)
}

// snapshot deep-copies the aggregates into the wire shape.
func (a *ambiguityMetrics) snapshot() *AmbiguitySnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &AmbiguitySnapshot{
		Rollup:                  a.rollup.Clone(),
		BitsResolvedPerQuestion: a.bitsPerQuestion.snapshotValue(),
		QuestionsPerUpdate:      a.questionsPerUpdate.snapshotValue(),
		ResidualAmbiguityBits:   a.residualBits.snapshotValue(),
	}
}

// AmbiguitySnapshot is the /metrics "ambiguity" block: the rollup of every
// ledger this daemon recorded and the distribution histograms.
type AmbiguitySnapshot struct {
	Rollup *ambiguity.Rollup `json:"rollup"`
	// BitsResolvedPerQuestion distributes each clarifying question's
	// information gain (bits of candidate space eliminated).
	BitsResolvedPerQuestion ValueHistogramSnapshot `json:"bitsResolvedPerQuestion"`
	// QuestionsPerUpdate distributes the number of questions each metered
	// update needed before the insertion point was pinned.
	QuestionsPerUpdate ValueHistogramSnapshot `json:"questionsPerUpdate"`
	// ResidualAmbiguityBits distributes the candidate-space entropy left when
	// each update was accepted — nonzero residuals quantify placements the
	// dialogue never pinned down.
	ResidualAmbiguityBits ValueHistogramSnapshot `json:"residualAmbiguityBits"`
}

// ValueHistogramSnapshot is the wire view of a fixed-bucket histogram over a
// dimensionless value (bits, question counts) — the unit-free sibling of
// HistogramSnapshot.
type ValueHistogramSnapshot struct {
	// Buckets are the upper bounds; Counts has one extra entry for +Inf.
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Mean    float64   `json:"mean"`
	EstP50  float64   `json:"estP50"`
	EstP95  float64   `json:"estP95"`
	EstP99  float64   `json:"estP99"`
}

// snapshotValue copies a dimensionless histogram into its wire view.
func (h *Histogram) snapshotValue() ValueHistogramSnapshot {
	s := h.Snapshot()
	return ValueHistogramSnapshot{
		Buckets: s.BucketsMs, Counts: s.Counts, Count: s.Count, Sum: s.SumMs,
		Mean: s.MeanMs, EstP50: s.EstP50Ms, EstP95: s.EstP95Ms, EstP99: s.EstP99Ms,
	}
}

// writeAmbiguity renders the disambiguation telemetry series: per-strategy
// counters (updates, questions, bits) and the three distribution histograms.
func writeAmbiguity(p *promtext.Writer, snap *AmbiguitySnapshot) {
	if r := snap.Rollup; r != nil {
		p.Counter("clarifyd_ambiguity_updates_metered_total",
			"Updates that carried a disambiguation information-gain ledger.", float64(r.Total.Updates))
		p.Counter("clarifyd_ambiguity_updates_with_questions_total",
			"Metered updates that asked at least one clarifying question.", float64(r.UpdatesWithQuestions))
		p.Header("clarifyd_ambiguity_strategy_updates_total", "counter", "Metered updates per insertion strategy.")
		for _, name := range r.StrategyNames() {
			p.Sample("clarifyd_ambiguity_strategy_updates_total", "strategy="+quoteLabel(name), float64(r.Strategies[name].Updates))
		}
		p.Header("clarifyd_ambiguity_strategy_questions_total", "counter", "Clarifying questions asked per insertion strategy.")
		for _, name := range r.StrategyNames() {
			p.Sample("clarifyd_ambiguity_strategy_questions_total", "strategy="+quoteLabel(name), float64(r.Strategies[name].Questions))
		}
		p.Header("clarifyd_ambiguity_strategy_bits_resolved_total", "counter", "Bits of candidate-space ambiguity resolved per insertion strategy.")
		for _, name := range r.StrategyNames() {
			p.Sample("clarifyd_ambiguity_strategy_bits_resolved_total", "strategy="+quoteLabel(name), r.Strategies[name].ResolvedBits)
		}
		p.Header("clarifyd_ambiguity_strategy_bits_residual_total", "counter", "Bits of candidate-space ambiguity left at accept per insertion strategy.")
		for _, name := range r.StrategyNames() {
			p.Sample("clarifyd_ambiguity_strategy_bits_residual_total", "strategy="+quoteLabel(name), r.Strategies[name].ResidualBits)
		}
		p.Header("clarifyd_ambiguity_kind_updates_total", "counter", "Metered updates per update kind (route-map, acl).")
		for _, name := range r.KindNames() {
			p.Sample("clarifyd_ambiguity_kind_updates_total", "kind="+quoteLabel(name), float64(r.Kinds[name].Updates))
		}
	}
	h := snap.BitsResolvedPerQuestion
	p.Header("clarifyd_ambiguity_bits_resolved_per_question", "histogram", "Information gain of each clarifying question, in bits.")
	p.Histogram("clarifyd_ambiguity_bits_resolved_per_question", "", h.Buckets, h.Counts, h.Count, h.Sum)
	h = snap.QuestionsPerUpdate
	p.Header("clarifyd_ambiguity_questions_per_update", "histogram", "Clarifying questions asked per metered update.")
	p.Histogram("clarifyd_ambiguity_questions_per_update", "", h.Buckets, h.Counts, h.Count, h.Sum)
	h = snap.ResidualAmbiguityBits
	p.Header("clarifyd_ambiguity_residual_bits", "histogram", "Candidate-space ambiguity left when each update was accepted, in bits.")
	p.Histogram("clarifyd_ambiguity_residual_bits", "", h.Buckets, h.Counts, h.Count, h.Sum)
}
