package server

import (
	"net/http"
	"slices"
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
// the pipeline attaches to completed updates: a fleet rollup, per-tenant
// rollups, and the three value histograms the telemetry exposes. All methods
// are safe for concurrent use.
type ambiguityMetrics struct {
	mu      sync.Mutex
	rollup  *ambiguity.Rollup
	tenants map[string]*ambiguity.Rollup
	// bitsPerQuestion observes each question's information gain; the other
	// two observe once per metered update.
	bitsPerQuestion    *Histogram
	questionsPerUpdate *Histogram
	residualBits       *Histogram
}

func newAmbiguityMetrics() *ambiguityMetrics {
	return &ambiguityMetrics{
		rollup:             ambiguity.NewRollup(),
		tenants:            map[string]*ambiguity.Rollup{},
		bitsPerQuestion:    NewHistogram(ambiguityBitsBuckets),
		questionsPerUpdate: NewHistogram(questionCountBuckets),
		residualBits:       NewHistogram(ambiguityBitsBuckets),
	}
}

// record folds one update's ledger in under the named tenant. Nil ledgers
// (updates that never reached disambiguation, or ran untraced) are ignored.
func (a *ambiguityMetrics) record(tenantName string, l *ambiguity.Ledger) {
	if l == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rollup.Add(l)
	tr := a.tenants[tenantName]
	if tr == nil {
		tr = ambiguity.NewRollup()
		a.tenants[tenantName] = tr
	}
	tr.Add(l)
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
	out := &AmbiguitySnapshot{
		Rollup:                  ambiguity.NewRollup(),
		BitsResolvedPerQuestion: a.bitsPerQuestion.snapshotValue(),
		QuestionsPerUpdate:      a.questionsPerUpdate.snapshotValue(),
		ResidualAmbiguityBits:   a.residualBits.snapshotValue(),
	}
	out.Rollup.Merge(a.rollup)
	if len(a.tenants) > 0 {
		out.Tenants = make(map[string]*ambiguity.Rollup, len(a.tenants))
		for name, tr := range a.tenants {
			cp := ambiguity.NewRollup()
			cp.Merge(tr)
			out.Tenants[name] = cp
		}
	}
	return out
}

// AmbiguitySnapshot is the body of GET /debug/ambiguity and the /metrics
// "ambiguity" block: the rollup of every ledger this daemon recorded, the
// per-tenant breakdown, and the distribution histograms. clarify-lb fetches
// one per backend and merges them into the fleet view — sums merge exactly,
// and the histograms share a fixed bucket table.
type AmbiguitySnapshot struct {
	Rollup  *ambiguity.Rollup            `json:"rollup"`
	Tenants map[string]*ambiguity.Rollup `json:"tenants,omitempty"`
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

// Merge folds another daemon's snapshot into this one (the lb fleet view).
// Histograms merge bucket-wise; a bucket-table mismatch (mixed-version
// fleet) keeps the receiver's histogram and merges only the rollups.
func (s *AmbiguitySnapshot) Merge(o *AmbiguitySnapshot) {
	if s == nil || o == nil {
		return
	}
	if s.Rollup == nil {
		s.Rollup = ambiguity.NewRollup()
	}
	s.Rollup.Merge(o.Rollup)
	for name, tr := range o.Tenants {
		if s.Tenants == nil {
			s.Tenants = map[string]*ambiguity.Rollup{}
		}
		dst := s.Tenants[name]
		if dst == nil {
			dst = ambiguity.NewRollup()
			s.Tenants[name] = dst
		}
		dst.Merge(tr)
	}
	s.BitsResolvedPerQuestion.Merge(o.BitsResolvedPerQuestion)
	s.QuestionsPerUpdate.Merge(o.QuestionsPerUpdate)
	s.ResidualAmbiguityBits.Merge(o.ResidualAmbiguityBits)
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

// MakeValueHistogramSnapshot builds the wire view from raw counts; the
// counts slice is copied.
func MakeValueHistogramSnapshot(buckets []float64, counts []int64, count int64, sum float64) ValueHistogramSnapshot {
	snap := ValueHistogramSnapshot{
		Buckets: buckets,
		Counts:  append([]int64(nil), counts...),
		Count:   count,
		Sum:     sum,
	}
	snap.restat()
	return snap
}

// restat recomputes the derived fields from the raw counts.
func (h *ValueHistogramSnapshot) restat() {
	if h.Count <= 0 {
		h.Mean, h.EstP50, h.EstP95, h.EstP99 = 0, 0, 0, 0
		return
	}
	h.Mean = h.Sum / float64(h.Count)
	h.EstP50 = estimateQuantile(h.Buckets, h.Counts, h.Count, 0.50)
	h.EstP95 = estimateQuantile(h.Buckets, h.Counts, h.Count, 0.95)
	h.EstP99 = estimateQuantile(h.Buckets, h.Counts, h.Count, 0.99)
}

// Merge adds another snapshot's observations bucket-wise and recomputes the
// quantile estimates. Mismatched bucket tables are skipped (the receiver
// wins) rather than producing a nonsense merge.
func (h *ValueHistogramSnapshot) Merge(o ValueHistogramSnapshot) {
	if o.Count == 0 && len(o.Counts) == 0 {
		return
	}
	if len(h.Counts) == 0 {
		*h = o
		h.Counts = append([]int64(nil), o.Counts...)
		return
	}
	if !slices.Equal(h.Buckets, o.Buckets) || len(h.Counts) != len(o.Counts) {
		return
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.restat()
}

// snapshotValue copies a dimensionless histogram into its wire view.
func (h *Histogram) snapshotValue() ValueHistogramSnapshot {
	return MakeValueHistogramSnapshot(h.buckets, h.counts, h.n, h.sum)
}

// handleDebugAmbiguity serves the disambiguation-efficiency rollup: how much
// candidate-space ambiguity updates started with, how many bits each
// clarifying question resolved, and what remained at accept — fleet-wide,
// with ?tenant=NAME selecting one tenant's rollup.
func (s *Server) handleDebugAmbiguity(w http.ResponseWriter, r *http.Request) {
	snap := s.amb.snapshot()
	if name := r.URL.Query().Get("tenant"); name != "" {
		tr, ok := snap.Tenants[name]
		if !ok {
			writeError(w, http.StatusNotFound, "no ambiguity ledgers for tenant "+name, 0)
			return
		}
		writeJSON(w, http.StatusOK, tr)
		return
	}
	writeJSON(w, http.StatusOK, snap)
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
	writeValueHistogram(p, "clarifyd_ambiguity_bits_resolved_per_question",
		"Information gain of each clarifying question, in bits.", snap.BitsResolvedPerQuestion)
	writeValueHistogram(p, "clarifyd_ambiguity_questions_per_update",
		"Clarifying questions asked per metered update.", snap.QuestionsPerUpdate)
	writeValueHistogram(p, "clarifyd_ambiguity_residual_bits",
		"Candidate-space ambiguity left when each update was accepted, in bits.", snap.ResidualAmbiguityBits)
}

// writeValueHistogram renders one unlabelled histogram family from a value
// snapshot: cumulative le buckets, +Inf, _sum and _count.
func writeValueHistogram(p *promtext.Writer, name, help string, h ValueHistogramSnapshot) {
	p.Header(name, "histogram", help)
	var cum int64
	for i, ub := range h.Buckets {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		p.Sample(name+"_bucket", "le="+quoteLabel(formatFloat(ub)), float64(cum))
	}
	p.Sample(name+"_bucket", `le="+Inf"`, float64(h.Count))
	p.Sample(name+"_sum", "", h.Sum)
	p.Sample(name+"_count", "", float64(h.Count))
}
