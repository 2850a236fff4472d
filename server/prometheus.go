package server

import (
	"fmt"
	"sort"

	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/resilience"
)

// writePrometheus renders a MetricsSnapshot as Prometheus text exposition
// (version 0.0.4). Durations are exposed in milliseconds, matching the JSON
// view; metric names carry the _ms suffix so the unit is explicit.
func writePrometheus(p *promtext.Writer, snap MetricsSnapshot) {
	w := p.W
	p.Header("clarifyd_requests_total", "counter", "HTTP requests received per endpoint pattern.")
	for _, k := range sortedKeys(snap.Requests) {
		fmt.Fprintf(w, "clarifyd_requests_total{endpoint=%s} %d\n", quoteLabel(k), snap.Requests[k])
	}

	p.Header("clarifyd_responses_total", "counter", "HTTP responses sent per status code.")
	codes := make([]int, 0, len(snap.Statuses))
	for c := range snap.Statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "clarifyd_responses_total{code=\"%d\"} %d\n", c, snap.Statuses[c])
	}

	p.Gauge("clarifyd_in_flight_requests", "HTTP requests currently being served.", float64(snap.InFlight))
	p.Counter("clarifyd_rejected_total", "Submissions shed with 429 backpressure.", float64(snap.Rejected))
	p.Gauge("clarifyd_queue_depth", "Updates waiting for a worker.", float64(snap.QueueDepth))
	p.Gauge("clarifyd_queue_capacity", "Bounded submission queue size.", float64(snap.QueueCapacity))
	p.Gauge("clarifyd_workers", "Worker pool size.", float64(snap.Workers))
	p.Gauge("clarifyd_active_updates", "Updates executing or parked on a question.", float64(snap.ActiveUpdates))
	p.Gauge("clarifyd_sessions", "Live sessions.", float64(snap.Sessions))
	p.Counter("clarifyd_evicted_sessions_total", "Sessions removed by TTL eviction.", float64(snap.EvictedSessions))
	p.Counter("clarifyd_snapshotted_sessions_total", "Sessions captured for handoff.", float64(snap.SnapshottedSessions))
	p.Counter("clarifyd_restored_sessions_total", "Sessions rehydrated from a snapshot or peer handoff.", float64(snap.RestoredSessions))
	p.Counter("clarifyd_restore_failures_total", "Rejected session restore attempts.", float64(snap.RestoreFailures))
	p.Counter("clarifyd_traces_total", "Completed pipeline traces recorded.", float64(snap.Traces))

	p.Counter("clarifyd_pipeline_llm_calls_total", "LLM completions requested across all sessions.", float64(snap.Pipeline.LLMCalls))
	p.Counter("clarifyd_pipeline_disambiguations_total", "Disambiguation questions answered.", float64(snap.Pipeline.Disambiguations))
	p.Counter("clarifyd_pipeline_retries_total", "Synthesis attempts beyond the first.", float64(snap.Pipeline.Retries))
	p.Counter("clarifyd_pipeline_punts_total", "Updates abandoned at the retry threshold.", float64(snap.Pipeline.Punts))
	p.Counter("clarifyd_pipeline_updates_total", "Successful insertions.", float64(snap.Pipeline.Updates))

	p.Counter("clarifyd_space_cache_hits_total", "Symbolic route-space cache hits.", float64(snap.SpaceCache.Hits))
	p.Counter("clarifyd_space_cache_misses_total", "Symbolic route-space cache misses (universe rebuilds).", float64(snap.SpaceCache.Misses))
	p.Gauge("clarifyd_space_cache_idle", "Symbolic route spaces parked in the cache.", float64(snap.SpaceCache.Idle))
	p.Gauge("clarifyd_space_cache_automata", "Compiled regex automata held by the route-space cache's table.", float64(snap.SpaceCache.Automata))

	p.Counter("clarifyd_panics_recovered_total", "Pipeline-job panics contained by the worker pool.", float64(snap.PanicsRecovered))
	p.Counter("clarifyd_update_timeouts_total", "Updates aborted by the per-update deadline.", float64(snap.UpdateTimeouts))
	p.Counter("clarifyd_failed_updates_total", "Updates that ended in error, timed-out and panicked ones included.", float64(snap.FailedUpdates))
	if snap.Resilience != nil {
		writeResilience(p, snap.Resilience)
	}
	if snap.Journal != nil {
		p.Counter("clarifyd_journal_appended_total", "Flight-recorder records appended.", float64(snap.Journal.Appended))
		p.Counter("clarifyd_journal_bytes_total", "Flight-recorder bytes written.", float64(snap.Journal.Bytes))
		p.Counter("clarifyd_journal_rotations_total", "Flight-recorder segment rotations.", float64(snap.Journal.Rotations))
		p.Counter("clarifyd_journal_errors_total", "Flight-recorder append or rotation failures.", float64(snap.Journal.Errors))
	}
	if snap.Ambiguity != nil {
		writeAmbiguity(p, snap.Ambiguity)
	}
	if snap.Runtime != nil {
		p.Gauge("clarifyd_goroutines", "Live goroutines.", float64(snap.Runtime.Goroutines))
		p.Gauge("clarifyd_gc_pause_p99_ms", "99th-percentile GC stop-the-world pause since start, in milliseconds.", snap.Runtime.GCPauseP99Ms)
		p.Gauge("clarifyd_heap_inuse_bytes", "Heap memory occupied by in-use spans.", float64(snap.Runtime.HeapInUseBytes))
	}

	p.Header("clarifyd_request_duration_ms", "histogram", "HTTP request latency per endpoint pattern, in milliseconds.")
	for _, k := range sortedHistKeys(snap.LatencyMs) {
		WriteHistogram(p, "clarifyd_request_duration_ms", "endpoint="+quoteLabel(k), snap.LatencyMs[k])
	}

	p.Header("clarifyd_stage_duration_ms", "histogram", "Pipeline stage latency from completed traces, in milliseconds.")
	for _, k := range sortedHistKeys(snap.StagesMs) {
		WriteHistogram(p, "clarifyd_stage_duration_ms", "stage="+quoteLabel(k), snap.StagesMs[k])
	}
}

// writeResilience renders the LLM backend-path series: degraded mode, the
// primary breaker's state machine, and per-backend traffic.
func writeResilience(p *promtext.Writer, rs *resilience.Stats) {
	w := p.W
	degraded := 0.0
	if rs.Degraded {
		degraded = 1
	}
	p.Gauge("clarifyd_llm_degraded", "1 while completions are served by a fallback backend or the primary breaker is open.", degraded)
	if b := rs.Breaker; b != nil {
		state := 0.0
		switch b.State {
		case "open":
			state = 1
		case "half-open":
			state = 2
		}
		p.Gauge("clarifyd_llm_breaker_state", "Primary breaker state: 0 closed, 1 open, 2 half-open.", state)
		p.Counter("clarifyd_llm_breaker_opens_total", "Breaker transitions into the open state.", float64(b.Opens))
		p.Counter("clarifyd_llm_breaker_short_circuits_total", "LLM calls rejected without reaching the primary backend.", float64(b.ShortCircuits))
		p.Counter("clarifyd_llm_breaker_probes_total", "Half-open probe calls admitted to the primary backend.", float64(b.Probes))
	}
	if c := rs.Chain; c != nil {
		p.Counter("clarifyd_llm_fallback_total", "Completions served by a non-primary backend.", float64(c.Fallbacks))
		p.Counter("clarifyd_llm_chain_exhausted_total", "Completions where every backend failed.", float64(c.Exhausted))
		p.Header("clarifyd_llm_backend_served_total", "counter", "Completions served per backend.")
		for _, b := range c.Backends {
			fmt.Fprintf(w, "clarifyd_llm_backend_served_total{backend=%s} %d\n", quoteLabel(b.Name), b.Served)
		}
		p.Header("clarifyd_llm_backend_failures_total", "counter", "Failed attempts per backend.")
		for _, b := range c.Backends {
			fmt.Fprintf(w, "clarifyd_llm_backend_failures_total{backend=%s} %d\n", quoteLabel(b.Name), b.Failures)
		}
	}
}

// WriteHistogram renders one latency histogram series under the
// preformatted label set: cumulative le buckets, an explicit +Inf bucket,
// then _sum and _count. Shared with clarify-lb's per-backend series.
func WriteHistogram(p *promtext.Writer, name, labels string, h HistogramSnapshot) {
	p.Histogram(name, labels, h.BucketsMs, h.Counts, h.Count, h.SumMs)
}

func formatFloat(v float64) string { return promtext.FormatFloat(v) }

func quoteLabel(v string) string { return promtext.QuoteLabel(v) }

func sortedKeys(m map[string]int64) []string { return promtext.SortedKeys(m) }

func sortedHistKeys(m map[string]HistogramSnapshot) []string { return promtext.SortedKeys(m) }
