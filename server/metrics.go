package server

import (
	"sort"
	"sync"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/symbolic"
)

// defaultLatencyBuckets are the upper bounds in milliseconds of every
// latency histogram the server keeps; the last implicit bucket is +Inf.
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
}

// NewHistogram returns an empty histogram over the given ascending upper
// bounds; an implicit last bucket catches everything above them.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// add counts one observation.
func (h *Histogram) add(v float64) {
	h.counts[sort.SearchFloat64s(h.buckets, v)]++
	h.sum += v
	h.n++
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.add(float64(d) / float64(time.Millisecond))
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
	mu       sync.Mutex
	requests map[string]int64
	statuses map[int]int64
	latency  map[string]*Histogram
	stages   map[string]*Histogram // pipeline stage durations from completed traces
	inFlight int64
	rejected int64 // 429 backpressure rejections
	panics   int64 // worker panics contained by the pool
	timeouts int64 // updates aborted by the per-update deadline
	failed   int64 // updates that ended in error
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[string]int64{},
		statuses: map[int]int64{},
		latency:  map[string]*Histogram{},
		stages:   map[string]*Histogram{},
	}
}

// observeTrace folds one completed span tree into the per-stage latency
// histograms, aggregating numbered spans (synthesize-attempt-2, ...) under
// their canonical stage name.
func (m *metrics) observeTrace(t *obs.Trace) {
	if t == nil || t.Root == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t.Walk(func(sp *obs.Span, _ int) {
		stage := obs.CanonicalStage(sp.Name)
		h := m.stages[stage]
		if h == nil {
			h = NewHistogram(defaultLatencyBuckets)
			m.stages[stage] = h
		}
		h.Observe(sp.Duration)
	})
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

// recordFailedUpdate counts one update that ended in error.
func (m *metrics) recordFailedUpdate() {
	m.mu.Lock()
	m.failed++
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
			h = NewHistogram(defaultLatencyBuckets)
			m.latency[endpoint] = h
		}
		h.Observe(d)
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
	// PanicsRecovered counts pipeline-job panics contained by the worker
	// pool; each one failed its update but left the daemon serving.
	PanicsRecovered int64 `json:"panicsRecovered"`
	// UpdateTimeouts counts updates aborted by the per-update deadline.
	UpdateTimeouts int64 `json:"updateTimeouts"`
	// FailedUpdates counts updates that ended in error, timed-out and
	// panicked ones included. With the update-stage histogram it yields
	// both serving objectives: availability is one minus FailedUpdates over
	// StagesMs["update"].Count, and latency is the share of that histogram
	// at or under 500 ms.
	FailedUpdates int64 `json:"failedUpdates"`
	// Resilience reports the LLM backend path (circuit breaker + fallback
	// chain) when the server was built with one; nil otherwise.
	Resilience *resilience.Stats `json:"resilience,omitempty"`
	// Journal reports flight-recorder activity when journaling is enabled;
	// nil otherwise.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Ambiguity is the disambiguation-efficiency telemetry: information-gain
	// rollups per strategy plus the bits/questions distributions.
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
	out.FailedUpdates = m.failed
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

// Snapshot copies the histogram into its wire view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return MakeHistogramSnapshot(h.buckets, h.counts, h.n, h.sum)
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
