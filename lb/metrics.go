package lb

import (
	"sort"

	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/server"
)

// MetricsSnapshot is the body of the balancer's GET /metrics.
type MetricsSnapshot struct {
	// Backends is every replica's state, counters, and last probe payload.
	Backends []BackendSnapshot `json:"backends"`
	// Admitted / AcceptingSessions count the rotation's current shape.
	Admitted          int `json:"admitted"`
	AcceptingSessions int `json:"acceptingSessions"`
	// Proxied counts requests forwarded to a backend (including failures);
	// NoBackend counts requests refused for want of an eligible backend.
	Proxied   int64 `json:"proxied"`
	NoBackend int64 `json:"noBackend"`
	// RestoredSessions counts sessions re-placed via PUT .../restore;
	// GonePinsCleared counts affinity pins dropped because a backend
	// answered 410 Gone for the session.
	RestoredSessions int64 `json:"restoredSessions,omitempty"`
	GonePinsCleared  int64 `json:"gonePinsCleared,omitempty"`
	// AffinityEntries is the live session-pin count; AffinityMisses counts
	// lookups that fell back to the hash ring; AffinityEvicted the pins
	// dropped by the idle TTL.
	AffinityEntries int   `json:"affinityEntries"`
	AffinityMisses  int64 `json:"affinityMisses"`
	AffinityEvicted int64 `json:"affinityEvicted"`
	// RingPoints is backends × virtual nodes.
	RingPoints int `json:"ringPoints"`
	// ProbeRounds counts completed all-backend probe sweeps.
	ProbeRounds int64 `json:"probeRounds"`
	// Traces counts per-request proxy traces recorded; KeptTraces the
	// evicted error traces rescued by tail retention.
	Traces     int64 `json:"traces,omitempty"`
	KeptTraces int64 `json:"keptTraces,omitempty"`
	// Tenants attributes forwarded requests and relayed 429 sheds to the
	// X-Clarify-Tenant principal (bounded cardinality; headerless traffic
	// folds into the default tenant).
	Tenants map[string]TenantLBStats `json:"tenants,omitempty"`
	// UptimeSeconds is the time since the balancer was built.
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (l *LB) snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Backends:         l.Backends(),
		Proxied:          l.proxied.Load(),
		NoBackend:        l.noBackend.Load(),
		RestoredSessions: l.restored.Load(),
		GonePinsCleared:  l.gonePins.Load(),
		AffinityEntries:  l.affinity.Len(),
		AffinityMisses:   l.affinity.Misses(),
		AffinityEvicted:  l.affinity.Evicted(),
		RingPoints:       l.ring.Points(),
		ProbeRounds:      l.prober.probes.Load(),
		Traces:           l.tracesTotal.Load(),
		Tenants:          l.tenants.snapshot(),
	}
	if l.traces != nil {
		snap.KeptTraces = l.traces.KeptTotal()
	}
	for _, b := range snap.Backends {
		if b.State == StateAdmitted {
			snap.Admitted++
			if !b.Draining {
				snap.AcceptingSessions++
			}
		}
	}
	snap.UptimeSeconds = sinceSeconds(l.started)
	return snap
}

// writePrometheus renders the balancer's metrics through a promtext.Writer —
// Prometheus 0.0.4 or OpenMetrics 1.0 with trace exemplars on the
// per-backend latency buckets — following the clarifyd conventions
// (internal/promtext): ms-suffixed durations, per-backend labels, histograms
// with explicit +Inf.
func writePrometheus(p *promtext.Writer, snap MetricsSnapshot) {
	p.Counter("clarify_lb_proxied_total", "Requests forwarded to a backend.", float64(snap.Proxied))
	p.Counter("clarify_lb_no_backend_total", "Requests refused for want of an eligible backend.", float64(snap.NoBackend))
	p.Gauge("clarify_lb_backends", "Configured backends.", float64(len(snap.Backends)))
	p.Gauge("clarify_lb_backends_admitted", "Backends in rotation.", float64(snap.Admitted))
	p.Gauge("clarify_lb_backends_accepting_sessions", "Backends accepting new sessions (admitted and not draining).", float64(snap.AcceptingSessions))
	p.Gauge("clarify_lb_affinity_entries", "Live session-to-backend pins.", float64(snap.AffinityEntries))
	p.Counter("clarify_lb_affinity_misses_total", "Session lookups that fell back to the hash ring.", float64(snap.AffinityMisses))
	p.Counter("clarify_lb_affinity_evicted_total", "Session pins dropped by the idle TTL.", float64(snap.AffinityEvicted))
	p.Counter("clarify_lb_restored_sessions_total", "Sessions re-placed via PUT restore.", float64(snap.RestoredSessions))
	p.Counter("clarify_lb_gone_pins_cleared_total", "Affinity pins cleared by a backend 410 Gone.", float64(snap.GonePinsCleared))
	p.Gauge("clarify_lb_ring_points", "Hash-ring points (backends x virtual nodes).", float64(snap.RingPoints))
	p.Counter("clarify_lb_probe_rounds_total", "Completed all-backend probe sweeps.", float64(snap.ProbeRounds))
	p.Counter("clarify_lb_traces_total", "Per-request proxy traces recorded.", float64(snap.Traces))
	p.Counter("clarify_lb_kept_traces_total", "Evicted error traces rescued by tail retention.", float64(snap.KeptTraces))

	p.Header("clarify_lb_backend_up", "gauge", "1 while the backend is admitted.")
	for _, b := range snap.Backends {
		up := 0.0
		if b.State == StateAdmitted {
			up = 1
		}
		p.Sample("clarify_lb_backend_up", label(b), up)
	}
	p.Header("clarify_lb_backend_draining", "gauge", "1 while the backend reports draining.")
	for _, b := range snap.Backends {
		v := 0.0
		if b.Draining {
			v = 1
		}
		p.Sample("clarify_lb_backend_draining", label(b), v)
	}
	p.Header("clarify_lb_backend_requests_total", "counter", "Requests proxied per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_requests_total", label(b), float64(b.Requests))
	}
	p.Header("clarify_lb_backend_errors_total", "counter", "Backend responses >= 500 per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_errors_total", label(b), float64(b.Errors5xx))
	}
	p.Header("clarify_lb_backend_transport_errors_total", "counter", "Proxied requests that never reached the backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_transport_errors_total", label(b), float64(b.TransportErrors))
	}
	p.Header("clarify_lb_backend_sheds_total", "counter", "Backend 429 shed responses relayed per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_sheds_total", label(b), float64(b.Sheds))
	}
	p.Header("clarify_lb_backend_creates_total", "counter", "Sessions placed per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_creates_total", label(b), float64(b.CreatesRouted))
	}
	p.Header("clarify_lb_backend_ejections_total", "counter", "Ejection transitions per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_ejections_total", label(b), float64(b.Ejections))
	}
	p.Header("clarify_lb_backend_readmissions_total", "counter", "Re-admission transitions per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_readmissions_total", label(b), float64(b.Readmissions))
	}
	p.Header("clarify_lb_backend_queue_depth", "gauge", "Last probed submission-queue depth per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_queue_depth", label(b), float64(b.Load.QueueDepth))
	}
	p.Header("clarify_lb_backend_active_sessions", "gauge", "Last probed live-session count per backend.")
	for _, b := range snap.Backends {
		p.Sample("clarify_lb_backend_active_sessions", label(b), float64(b.Load.ActiveSessions))
	}
	p.Header("clarify_lb_backend_request_duration_ms", "histogram", "Proxied request latency per backend, in milliseconds.")
	for _, b := range snap.Backends {
		server.WriteHistogram(p, "clarify_lb_backend_request_duration_ms", "backend", b.Name, b.LatencyMs)
	}
	if len(snap.Tenants) > 0 {
		names := make([]string, 0, len(snap.Tenants))
		for name := range snap.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		p.Header("clarify_lb_tenant_requests_total", "counter", "Requests forwarded per X-Clarify-Tenant principal.")
		for _, name := range names {
			p.Sample("clarify_lb_tenant_requests_total", tenantLabel(name), float64(snap.Tenants[name].Requests))
		}
		p.Header("clarify_lb_tenant_sheds_total", "counter", "Backend 429 sheds relayed per X-Clarify-Tenant principal.")
		for _, name := range names {
			p.Sample("clarify_lb_tenant_sheds_total", tenantLabel(name), float64(snap.Tenants[name].Sheds))
		}
	}
	p.EOF()
}

func label(b BackendSnapshot) string {
	return "backend=" + promtext.QuoteLabel(b.Name)
}

func tenantLabel(name string) string {
	return "tenant=" + promtext.QuoteLabel(name)
}
