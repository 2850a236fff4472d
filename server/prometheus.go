package server

import (
	"fmt"
	"sort"

	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/slo"
	"github.com/clarifynet/clarify/tenant"
)

// writePrometheus renders a MetricsSnapshot through a promtext.Writer, which
// selects between the classic text exposition format (version 0.0.4) and
// OpenMetrics 1.0 — the latter carrying trace exemplars on histogram buckets
// and the closing # EOF. Durations are exposed in milliseconds, matching the
// JSON view; metric names carry the _ms suffix so the unit is explicit.
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
	p.Counter("clarifyd_kept_traces_total", "Evicted traces rescued by tail retention (error/degraded/slow).", float64(snap.KeptTraces))

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
	if snap.Resilience != nil {
		writeResilience(p, snap.Resilience)
	}
	if snap.SLO != nil {
		writeSLO(p, *snap.SLO)
	}
	if snap.Journal != nil {
		p.Counter("clarifyd_journal_appended_total", "Flight-recorder records appended.", float64(snap.Journal.Appended))
		p.Counter("clarifyd_journal_bytes_total", "Flight-recorder bytes written.", float64(snap.Journal.Bytes))
		p.Counter("clarifyd_journal_rotations_total", "Flight-recorder segment rotations.", float64(snap.Journal.Rotations))
		p.Counter("clarifyd_journal_errors_total", "Flight-recorder append or rotation failures.", float64(snap.Journal.Errors))
	}
	if snap.Incidents != nil {
		p.Counter("clarifyd_incident_captures_total", "Profile-on-fire incident bundles captured.", float64(snap.Incidents.Captures))
		p.Counter("clarifyd_incident_suppressed_total", "Firing transitions skipped by the capture cooldown.", float64(snap.Incidents.Suppressed))
	}
	if snap.Queue != nil {
		overloaded := 0.0
		if snap.Queue.Overloaded {
			overloaded = 1
		}
		p.Gauge("clarifyd_queue_overloaded", "1 while the CoDel-style shed controller is tripped on queue delay.", overloaded)
		p.Counter("clarifyd_queue_shed_overload_total", "Bulk submissions shed in overload mode (fair-share policy).", float64(snap.Queue.ShedOverload))
		p.Counter("clarifyd_queue_shed_full_total", "Submissions shed because the queue was at capacity.", float64(snap.Queue.ShedFull))
		p.Counter("clarifyd_queue_dropped_total", "Queued jobs purged at the shutdown drain deadline.", float64(snap.Queue.Dropped))
		p.Counter("clarifyd_queue_overload_entries_total", "Transitions of the shed controller into overload mode.", float64(snap.Queue.ShedEntries))
	}
	if len(snap.Tenants) > 0 {
		writeTenants(p, snap.Tenants)
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
		WriteHistogram(p, "clarifyd_request_duration_ms", "endpoint", k, snap.LatencyMs[k])
	}

	p.Header("clarifyd_stage_duration_ms", "histogram", "Pipeline stage latency from completed traces, in milliseconds.")
	for _, k := range sortedHistKeys(snap.StagesMs) {
		WriteHistogram(p, "clarifyd_stage_duration_ms", "stage", k, snap.StagesMs[k])
	}
	p.EOF()
}

// writeTenants renders the per-tenant admission series. Cardinality is
// bounded by the registry's tenant cap, and SLO series repeat per tenant
// only for tenants that have served updates.
func writeTenants(p *promtext.Writer, tenants map[string]TenantMetrics) {
	w := p.W
	names := sortedTenantNames(tenants)
	p.Header("clarifyd_tenant_submits_total", "counter", "Admitted submissions per tenant.")
	for _, name := range names {
		fmt.Fprintf(w, "clarifyd_tenant_submits_total{tenant=%s} %d\n", quoteLabel(name), tenants[name].Submits)
	}
	p.Header("clarifyd_tenant_sheds_total", "counter", "Rejected submissions per tenant and admission gate.")
	for _, name := range names {
		tm := tenants[name]
		for _, reason := range sortedKeysAny(tm.Sheds) {
			fmt.Fprintf(w, "clarifyd_tenant_sheds_total{tenant=%s,reason=%s} %d\n",
				quoteLabel(name), quoteLabel(reason), tm.Sheds[tenant.Reason(reason)])
		}
	}
	p.Header("clarifyd_tenant_in_flight_updates", "gauge", "Updates executing or parked, per tenant.")
	for _, name := range names {
		fmt.Fprintf(w, "clarifyd_tenant_in_flight_updates{tenant=%s} %d\n", quoteLabel(name), tenants[name].InFlight)
	}
	p.Header("clarifyd_tenant_queue_depth", "gauge", "Bulk jobs queued per tenant.")
	for _, name := range names {
		fmt.Fprintf(w, "clarifyd_tenant_queue_depth{tenant=%s} %d\n", quoteLabel(name), tenants[name].QueueDepth)
	}
	p.Header("clarifyd_tenant_weight", "gauge", "Fair-queueing weight per tenant.")
	for _, name := range names {
		fmt.Fprintf(w, "clarifyd_tenant_weight{tenant=%s} %s\n", quoteLabel(name), formatFloat(tenants[name].Profile.Weight))
	}
	p.Header("clarifyd_tenant_slo_error_budget_remaining", "gauge", "Error budget unspent per tenant and objective.")
	for _, name := range names {
		if s := tenants[name].SLO; s != nil {
			for _, o := range s.Objectives {
				fmt.Fprintf(w, "clarifyd_tenant_slo_error_budget_remaining{tenant=%s,objective=%s} %s\n",
					quoteLabel(name), quoteLabel(o.Objective.Name), formatFloat(o.ErrorBudgetRemaining))
			}
		}
	}
	p.Header("clarifyd_tenant_slo_alert_firing", "gauge", "1 while a burn-rate alert fires, per tenant, objective, and window.")
	for _, name := range names {
		if s := tenants[name].SLO; s != nil {
			for _, o := range s.Objectives {
				for _, ws := range o.Windows {
					firing := 0.0
					if ws.Firing {
						firing = 1
					}
					fmt.Fprintf(w, "clarifyd_tenant_slo_alert_firing{tenant=%s,objective=%s,window=%s} %s\n",
						quoteLabel(name), quoteLabel(o.Objective.Name), quoteLabel(ws.Severity), formatFloat(firing))
				}
			}
		}
	}
}

// sortedKeysAny sorts a Reason-keyed map's keys as strings.
func sortedKeysAny(m map[tenant.Reason]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// writeResilience renders the LLM backend-path series: degraded mode, the
// primary breaker's state machine, and per-backend chain traffic.
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

// writeSLO renders the rolling-objective series: good/bad totals, budget
// remaining, and per-window burn rates with an alert-firing gauge.
func writeSLO(p *promtext.Writer, snap slo.Snapshot) {
	w := p.W
	p.Header("clarifyd_slo_good_total", "counter", "Updates meeting the objective, per objective.")
	for _, o := range snap.Objectives {
		fmt.Fprintf(w, "clarifyd_slo_good_total{objective=%s} %d\n", quoteLabel(o.Objective.Name), o.Good)
	}
	p.Header("clarifyd_slo_bad_total", "counter", "Updates missing the objective, per objective.")
	for _, o := range snap.Objectives {
		fmt.Fprintf(w, "clarifyd_slo_bad_total{objective=%s} %d\n", quoteLabel(o.Objective.Name), o.Bad)
	}
	p.Header("clarifyd_slo_error_budget_remaining", "gauge", "Fraction of the longest window's error budget unspent, per objective.")
	for _, o := range snap.Objectives {
		fmt.Fprintf(w, "clarifyd_slo_error_budget_remaining{objective=%s} %s\n",
			quoteLabel(o.Objective.Name), formatFloat(o.ErrorBudgetRemaining))
	}
	p.Header("clarifyd_slo_burn_rate", "gauge", "Error-budget burn rate per objective and window.")
	for _, o := range snap.Objectives {
		for _, ws := range o.Windows {
			fmt.Fprintf(w, "clarifyd_slo_burn_rate{objective=%s,window=%s,span=\"long\"} %s\n",
				quoteLabel(o.Objective.Name), quoteLabel(ws.Severity), formatFloat(ws.LongBurn))
			fmt.Fprintf(w, "clarifyd_slo_burn_rate{objective=%s,window=%s,span=\"short\"} %s\n",
				quoteLabel(o.Objective.Name), quoteLabel(ws.Severity), formatFloat(ws.ShortBurn))
		}
	}
	p.Header("clarifyd_slo_alert_firing", "gauge", "1 while the multi-window burn-rate alert fires, per objective and window.")
	for _, o := range snap.Objectives {
		for _, ws := range o.Windows {
			firing := 0.0
			if ws.Firing {
				firing = 1
			}
			fmt.Fprintf(w, "clarifyd_slo_alert_firing{objective=%s,window=%s} %s\n",
				quoteLabel(o.Objective.Name), quoteLabel(ws.Severity), formatFloat(firing))
		}
	}
}

// WriteHistogram renders one labelled latency histogram series: cumulative
// le buckets (with exemplars in OpenMetrics mode), an explicit +Inf bucket,
// then _sum and _count. Shared with clarify-lb's per-backend series.
func WriteHistogram(p *promtext.Writer, name, labelKey, labelVal string, h HistogramSnapshot) {
	p.Histogram(name, labelKey, labelVal, h.BucketsMs, h.Counts, h.Count, h.SumMs, exemplarsOf(h))
}

// exemplarsOf converts a snapshot's exemplars to the promtext wire type.
func exemplarsOf(h HistogramSnapshot) []*promtext.Exemplar {
	if len(h.Exemplars) == 0 {
		return nil
	}
	out := make([]*promtext.Exemplar, len(h.Exemplars))
	for i, e := range h.Exemplars {
		if e.TraceID == "" {
			continue
		}
		out[i] = &promtext.Exemplar{TraceID: e.TraceID, Value: e.ValueMs, Ts: e.Ts}
	}
	return out
}

func formatFloat(v float64) string { return promtext.FormatFloat(v) }

func quoteLabel(v string) string { return promtext.QuoteLabel(v) }

func sortedKeys(m map[string]int64) []string { return promtext.SortedKeys(m) }

func sortedHistKeys(m map[string]HistogramSnapshot) []string { return promtext.SortedKeys(m) }
