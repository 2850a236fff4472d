package server

import (
	"sort"
	"sync"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/incident"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/slo"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/tenant"
)

// defaultLatencyBuckets are the histogram upper bounds in milliseconds when
// Options.LatencyBucketsMs is empty; the last implicit bucket is +Inf.
var defaultLatencyBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// Histogram is a fixed-bucket histogram: latency in milliseconds for the
// request and stage series here and clarify-lb's per-backend series, or a
// dimensionless value for the ambiguity distributions. It is not safe for
// concurrent use; its owner's mutex guards it.
type Histogram struct {
	buckets []float64
	counts  []int64 // len(buckets)+1, last bucket is +Inf
	sum     float64
	n       int64
	// exemplars holds the most recent exemplared observation per bucket
	// (len(buckets)+1, the last for +Inf); nil until the first exemplar, so
	// exemplar-off histograms pay no extra memory.
	exemplars []Exemplar
}

// NewHistogram returns an empty histogram over the given ascending upper
// bounds; an implicit last bucket catches everything above them.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// add counts one observation and returns its bucket index.
func (h *Histogram) add(v float64) int {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.n++
	return i
}

// Observe records one latency. A non-empty traceID also makes the
// observation its bucket's exemplar, replacing the previous one, so each
// bucket links to a recent representative trace; ts is its unix time in
// seconds.
func (h *Histogram) Observe(d time.Duration, traceID string, ts float64) {
	ms := float64(d) / float64(time.Millisecond)
	i := h.add(ms)
	if traceID == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[i] = Exemplar{TraceID: traceID, ValueMs: ms, Ts: ts}
}

// Exemplar links one histogram bucket to the trace behind a recent
// observation in it — the OpenMetrics exemplar, so a latency spike on a
// dashboard clicks through to /debug/traces/{traceId}.
type Exemplar struct {
	TraceID string  `json:"traceId"`
	ValueMs float64 `json:"valueMs"`
	Ts      float64 `json:"ts,omitempty"` // unix seconds
}

// HistogramSnapshot is the JSON view of one latency histogram.
type HistogramSnapshot struct {
	// BucketsMs are the upper bounds; Counts has one extra entry for +Inf.
	BucketsMs []float64 `json:"bucketsMs"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	SumMs     float64   `json:"sumMs"`
	MeanMs    float64   `json:"meanMs"`
	// EstP50Ms/EstP95Ms/EstP99Ms are quantile estimates interpolated from the
	// bucket counts (Prometheus histogram_quantile-style), so consumers don't
	// post-process raw buckets. Resolution is bounded by the bucket table.
	EstP50Ms float64 `json:"estP50Ms"`
	EstP95Ms float64 `json:"estP95Ms"`
	EstP99Ms float64 `json:"estP99Ms"`
	// Exemplars, when exemplar collection is on, carries the most recent
	// trace reference per bucket (len(Counts) entries; empty TraceID means
	// the bucket has no exemplar yet). Rendered on OpenMetrics output.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// estimateQuantile interpolates the q-quantile (0 < q < 1) from cumulative
// bucket counts, assuming observations are uniform within a bucket — the
// same model Prometheus's histogram_quantile uses. Samples in the +Inf
// bucket clamp to the highest finite bound.
func estimateQuantile(buckets []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 || len(buckets) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(buckets) {
				return buckets[len(buckets)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = buckets[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (buckets[i]-lower)*frac
		}
		cum += c
	}
	return buckets[len(buckets)-1]
}

// metrics aggregates the server's observable state: per-endpoint request and
// status counters, an in-flight gauge, backpressure rejections, and
// per-endpoint latency histograms. All methods are safe for concurrent use.
type metrics struct {
	buckets   []float64 // histogram upper bounds, fixed at construction
	exemplars bool      // attach trace exemplars to stage histograms
	mu        sync.Mutex
	requests  map[string]int64
	statuses  map[int]int64
	latency   map[string]*Histogram
	stages    map[string]*Histogram // pipeline stage durations from completed traces
	inFlight  int64
	rejected  int64 // 429 backpressure rejections
	panics    int64 // worker panics contained by the pool
	timeouts  int64 // updates aborted by the per-update deadline
}

func newMetrics(buckets []float64) *metrics {
	if len(buckets) == 0 {
		buckets = defaultLatencyBuckets
	}
	return &metrics{
		buckets:  buckets,
		requests: map[string]int64{},
		statuses: map[int]int64{},
		latency:  map[string]*Histogram{},
		stages:   map[string]*Histogram{},
	}
}

// observeTrace folds one completed span tree into the per-stage latency
// histograms, aggregating numbered spans (synthesize-attempt-2, ...) under
// their canonical stage name. With exemplars enabled, every bucket touched
// remembers the trace ID, linking the metric back to the span tree.
func (m *metrics) observeTrace(t *obs.Trace) {
	if t == nil || t.Root == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	traceID, ts := "", 0.0
	if m.exemplars {
		traceID, ts = t.ID, float64(time.Now().UnixMilli())/1000
	}
	t.Walk(func(sp *obs.Span, _ int) {
		stage := obs.CanonicalStage(sp.Name)
		h := m.stages[stage]
		if h == nil {
			h = NewHistogram(m.buckets)
			m.stages[stage] = h
		}
		h.Observe(sp.Duration, traceID, ts)
	})
}

// stageQuantile estimates the q-quantile of one stage's latency histogram
// plus its observation count — the tail-retention policy's "slower than p99"
// input.
func (m *metrics) stageQuantile(stage string, q float64) (float64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.stages[stage]
	if h == nil || h.n == 0 {
		return 0, 0
	}
	return estimateQuantile(h.buckets, h.counts, h.n, q), h.n
}

// recordPanic counts one recovered worker panic.
func (m *metrics) recordPanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// recordUpdateTimeout counts one update aborted by its deadline budget.
func (m *metrics) recordUpdateTimeout() {
	m.mu.Lock()
	m.timeouts++
	m.mu.Unlock()
}

// begin records an arriving request and returns the completion callback.
func (m *metrics) begin(endpoint string) func(status int) {
	start := time.Now()
	m.mu.Lock()
	m.requests[endpoint]++
	m.inFlight++
	m.mu.Unlock()
	return func(status int) {
		d := time.Since(start)
		m.mu.Lock()
		m.inFlight--
		m.statuses[status]++
		h := m.latency[endpoint]
		if h == nil {
			h = NewHistogram(m.buckets)
			m.latency[endpoint] = h
		}
		h.Observe(d, "", 0)
		if status == 429 {
			m.rejected++
		}
		m.mu.Unlock()
	}
}

// MetricsSnapshot is the body of GET /metrics (expvar-style JSON).
type MetricsSnapshot struct {
	// Requests counts requests per endpoint pattern.
	Requests map[string]int64 `json:"requests"`
	// Statuses counts responses per HTTP status code.
	Statuses map[int]int64 `json:"statuses"`
	// InFlight is the number of HTTP requests currently being served.
	InFlight int64 `json:"inFlight"`
	// Rejected counts 429 backpressure rejections.
	Rejected int64 `json:"rejected"`
	// LatencyMs holds one histogram per endpoint pattern.
	LatencyMs map[string]HistogramSnapshot `json:"latencyMs"`
	// QueueDepth is the number of updates waiting for a worker.
	QueueDepth int `json:"queueDepth"`
	// QueueCapacity is the bounded queue's size.
	QueueCapacity int `json:"queueCapacity"`
	// Workers is the worker pool size.
	Workers int `json:"workers"`
	// ActiveUpdates is the number of updates currently executing or parked
	// on a question.
	ActiveUpdates int64 `json:"activeUpdates"`
	// Sessions is the number of live sessions.
	Sessions int `json:"sessions"`
	// EvictedSessions counts sessions removed by TTL eviction.
	EvictedSessions int64 `json:"evictedSessions"`
	// SnapshottedSessions counts sessions captured for handoff, and
	// RestoredSessions counts sessions rehydrated from a snapshot or peer;
	// RestoreFailures counts rejected restore attempts (conflict, invalid
	// snapshot, cap).
	SnapshottedSessions int64 `json:"snapshottedSessions,omitempty"`
	RestoredSessions    int64 `json:"restoredSessions,omitempty"`
	RestoreFailures     int64 `json:"restoreFailures,omitempty"`
	// Pipeline is the cumulative clarify.Stats over all sessions, including
	// deleted and evicted ones.
	Pipeline clarify.Stats `json:"pipeline"`
	// SpaceCache reports the shared symbolic route-space cache: hits avoid
	// rebuilding a BDD universe from scratch.
	SpaceCache symbolic.SpaceCacheStats `json:"spaceCache"`
	// StagesMs holds one duration histogram per pipeline stage (classify,
	// synthesize-attempt, verify, disambiguate, ...), built from completed
	// traces.
	StagesMs map[string]HistogramSnapshot `json:"stagesMs"`
	// Traces counts completed traces recorded since start (the debug ring
	// retains only the most recent).
	Traces int64 `json:"traces"`
	// KeptTraces counts evicted traces rescued by the tail-retention policy
	// (errors, degraded runs, latency outliers).
	KeptTraces int64 `json:"keptTraces,omitempty"`
	// Incidents reports profile-on-fire activity when an incident recorder
	// is configured; nil otherwise.
	Incidents *incident.Stats `json:"incidents,omitempty"`
	// PanicsRecovered counts pipeline-job panics contained by the worker
	// pool; each one failed its update but left the daemon serving.
	PanicsRecovered int64 `json:"panicsRecovered"`
	// UpdateTimeouts counts updates aborted by the per-update deadline.
	UpdateTimeouts int64 `json:"updateTimeouts"`
	// Resilience reports the LLM backend path (circuit breaker + fallback
	// chain) when the server was built with one; nil otherwise.
	Resilience *resilience.Stats `json:"resilience,omitempty"`
	// SLO is the rolling objective state: per-objective good/bad counts,
	// error budget remaining, and multi-window burn-rate alerts.
	SLO *slo.Snapshot `json:"slo,omitempty"`
	// Journal reports flight-recorder activity when journaling is enabled;
	// nil otherwise.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Queue is the fair-dispatch queue's counters: pushes, pops, sheds by
	// gate, and whether the overload controller is tripped.
	Queue *tenant.QueueStats `json:"queue,omitempty"`
	// Tenants holds each live tenant's admission counters, queue backlog,
	// and private SLO rings.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// Ambiguity is the disambiguation-efficiency telemetry: information-gain
	// rollups per strategy and tenant plus the bits/questions distributions.
	// Also served alone at GET /debug/ambiguity.
	Ambiguity *AmbiguitySnapshot `json:"ambiguity,omitempty"`
	// Runtime is the process-runtime block (goroutines, GC pause p99, heap
	// in use), sampled at scrape time.
	Runtime *RuntimeStats `json:"runtime,omitempty"`
}

// snapshot copies the counters; pool/session fields are filled by the server.
func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{
		Requests:  make(map[string]int64, len(m.requests)),
		Statuses:  make(map[int]int64, len(m.statuses)),
		LatencyMs: make(map[string]HistogramSnapshot, len(m.latency)),
		StagesMs:  make(map[string]HistogramSnapshot, len(m.stages)),
		InFlight:  m.inFlight,
		Rejected:  m.rejected,
	}
	out.PanicsRecovered = m.panics
	out.UpdateTimeouts = m.timeouts
	for k, v := range m.requests {
		out.Requests[k] = v
	}
	for k, v := range m.statuses {
		out.Statuses[k] = v
	}
	for k, h := range m.latency {
		out.LatencyMs[k] = h.Snapshot()
	}
	for k, h := range m.stages {
		out.StagesMs[k] = h.Snapshot()
	}
	return out
}

// Snapshot copies the histogram into its wire view, exemplars included.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := MakeHistogramSnapshot(h.buckets, h.counts, h.n, h.sum)
	if h.exemplars != nil {
		snap.Exemplars = append([]Exemplar(nil), h.exemplars...)
	}
	return snap
}

// MakeHistogramSnapshot builds the wire view of a fixed-bucket latency
// histogram from raw counts, including the interpolated quantile estimates.
// The counts slice is copied. Histogram.Snapshot uses it; so can a caller
// that keeps raw counts of its own, such as the benchmark harness.
func MakeHistogramSnapshot(bucketsMs []float64, counts []int64, count int64, sumMs float64) HistogramSnapshot {
	snap := HistogramSnapshot{
		BucketsMs: bucketsMs,
		Counts:    append([]int64(nil), counts...),
		Count:     count,
		SumMs:     sumMs,
	}
	if count > 0 {
		snap.MeanMs = sumMs / float64(count)
		snap.EstP50Ms = estimateQuantile(bucketsMs, counts, count, 0.50)
		snap.EstP95Ms = estimateQuantile(bucketsMs, counts, count, 0.95)
		snap.EstP99Ms = estimateQuantile(bucketsMs, counts, count, 0.99)
	}
	return snap
}

// DefaultLatencyBucketsMs exposes the default histogram bound table for
// other serving tiers (the lb package) that want matching resolution.
func DefaultLatencyBucketsMs() []float64 {
	return append([]float64(nil), defaultLatencyBuckets...)
}
