package lb

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/clarifynet/clarify/obs"
)

// DefaultTraceBufferSize is the balancer's /debug/traces ring capacity when
// Options.TraceBufferSize is zero.
const DefaultTraceBufferSize = 256

// DefaultTraceKeepSize is the tail-retention ring's capacity when
// Options.TraceKeepSize is zero: evicted error traces survive here after
// healthy traffic pushes them out of the main ring.
const DefaultTraceKeepSize = 32

// proxyTrace accumulates one proxied request's trace and access-log fields.
// All span operations are nil-safe, so a balancer with tracing disabled
// (Options.TraceBufferSize < 0) pays only the struct allocation.
type proxyTrace struct {
	t     *obs.Trace
	reqID string
	start time.Time
	// placement is how the backend was chosen: pin, ring, p2c, or failover.
	placement string
	backend   string
	status    int
	errMsg    string
}

// beginProxy starts the per-request proxy trace. A client that sent its own
// W3C traceparent (clarify -remote does) is continued, not restarted: the
// proxy trace adopts the client's trace ID and records the client span as
// its remote parent. When the client sent no X-Request-Id, the minted
// request ID is the trace ID itself — one correlation namespace across the
// balancer, the replicas, and the client.
func (l *LB) beginProxy(r *http.Request) *proxyTrace {
	pt := &proxyTrace{reqID: r.Header.Get(requestIDHeader), start: time.Now()}
	if l.traces != nil {
		if tp, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); ok {
			pt.t = obs.NewTraceWith("lb-proxy", tp)
		} else {
			pt.t = obs.NewTrace("lb-proxy")
		}
		pt.t.Root.SetStr("method", r.Method)
		pt.t.Root.SetStr("path", r.URL.Path)
		if pt.reqID == "" {
			pt.reqID = pt.t.ID
		}
	} else if pt.reqID == "" {
		pt.reqID = newRequestID()
	}
	return pt
}

// span starts a child of the proxy root; nil when tracing is off.
func (pt *proxyTrace) span(name string) *obs.Span {
	if pt.t == nil {
		return nil
	}
	return pt.t.Root.Child(name)
}

// fail records a balancer-originated error response (no backend reached, or
// the one reached was unusable).
func (pt *proxyTrace) fail(status int, msg string) {
	pt.status = status
	pt.errMsg = msg
}

// endProxy finalizes the request's trace into the ring and emits the access
// log line. Call via defer so every exit path is covered.
func (l *LB) endProxy(pt *proxyTrace, r *http.Request) {
	if pt.t != nil {
		if pt.backend != "" {
			pt.t.Root.SetStr("backend", pt.backend)
		}
		if pt.placement != "" {
			pt.t.Root.SetStr("placement", pt.placement)
		}
		if pt.status != 0 {
			pt.t.Root.SetInt("status", int64(pt.status))
		}
		if pt.errMsg != "" {
			pt.t.Root.SetStr("error", pt.errMsg)
		}
		pt.t.Finish()
		l.traces.Add(pt.t)
		l.tracesTotal.Add(1)
	}
	if l.opts.AccessLog == nil {
		return
	}
	level := slog.LevelInfo
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("requestId", pt.reqID),
		slog.Int("status", pt.status),
		slog.Float64("durationMs", float64(time.Since(pt.start))/float64(time.Millisecond)),
	}
	if pt.t != nil {
		attrs = append(attrs, slog.String("traceId", pt.t.ID))
	}
	if pt.backend != "" {
		attrs = append(attrs, slog.String("backend", pt.backend))
	}
	if pt.placement != "" {
		attrs = append(attrs, slog.String("placement", pt.placement))
	}
	if pt.errMsg != "" {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", pt.errMsg))
	}
	l.opts.AccessLog.LogAttrs(r.Context(), level, "proxied", attrs...)
}

// keepProxyTrace is the balancer ring's tail-retention policy: error traces
// (transport failures, 5xx, no-backend refusals) survive eviction.
func keepProxyTrace(t *obs.Trace) bool {
	if _, ok := t.Root.Attr("error"); ok {
		return true
	}
	if a, ok := t.Root.Attr("status"); ok && a.Int >= 500 {
		return true
	}
	return false
}

// --- fleet trace view ---

// FleetTrace is the body of GET /debug/traces/{tid}: the balancer's proxy
// trace with every replica's matching trace grafted under the forward span
// that propagated its context — one cross-process tree per trace ID.
type FleetTrace struct {
	ID string `json:"id"`
	// Trace is the stitched tree, rooted at the balancer's proxy span. When
	// the balancer's own trace was evicted but a replica still holds one,
	// Trace is the replica's tree (Partial is set).
	Trace *obs.Trace `json:"trace"`
	// Backends names the replicas that contributed spans.
	Backends []string `json:"backends,omitempty"`
	// Orphans are replica traces whose recorded parent span was not found in
	// the balancer trace (evicted mid-rotation, or propagated by another LB).
	Orphans []*obs.Trace `json:"orphans,omitempty"`
	// Related summarizes the other proxied requests recorded under the same
	// trace ID — a client propagating one traceparent across a submit and
	// its question polls produces one proxy tree per request; Trace is the
	// one carrying the replica subtree, these are its siblings.
	Related []TraceSummary `json:"related,omitempty"`
	// Partial marks a view missing its balancer root.
	Partial bool `json:"partial,omitempty"`
}

// handleDebugTraces lists the balancer's retained proxy traces, newest
// first; ?limit=N bounds the response and ?kept=1 lists the tail-retention
// ring instead. The rows carry trace IDs to feed GET /debug/traces/{tid}.
func (l *LB) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if l.traces == nil {
		writeJSON(w, http.StatusOK, []TraceSummary{})
		return
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer", 0)
			return
		}
		limit = n
	}
	var traces []*obs.Trace
	if r.URL.Query().Get("kept") == "1" {
		traces = l.traces.Kept()
	} else {
		traces = l.traces.List()
	}
	if limit >= 0 && limit < len(traces) {
		traces = traces[:limit]
	}
	out := make([]TraceSummary, 0, len(traces))
	for _, t := range traces {
		out = append(out, summarizeProxy(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// TraceSummary is one row of the balancer's GET /debug/traces.
type TraceSummary struct {
	ID         string  `json:"id"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"durationMs"`
	Spans      int     `json:"spans"`
	Method     string  `json:"method,omitempty"`
	Path       string  `json:"path,omitempty"`
	Backend    string  `json:"backend,omitempty"`
	Placement  string  `json:"placement,omitempty"`
	Status     int     `json:"status,omitempty"`
	Error      string  `json:"error,omitempty"`
}

func summarizeProxy(t *obs.Trace) TraceSummary {
	s := TraceSummary{
		ID:         t.ID,
		Start:      t.Start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		DurationMs: float64(t.Duration()) / 1e6,
		Spans:      t.SpanCount(),
	}
	if a, ok := t.Root.Attr("method"); ok {
		s.Method = a.Str
	}
	if a, ok := t.Root.Attr("path"); ok {
		s.Path = a.Str
	}
	if a, ok := t.Root.Attr("backend"); ok {
		s.Backend = a.Str
	}
	if a, ok := t.Root.Attr("placement"); ok {
		s.Placement = a.Str
	}
	if a, ok := t.Root.Attr("status"); ok {
		s.Status = int(a.Int)
	}
	if a, ok := t.Root.Attr("error"); ok {
		s.Error = a.Str
	}
	return s
}

// handleDebugTrace reassembles the fleet-wide trace for one ID: the
// balancer's proxy trace plus every admitted replica's trace with that ID
// (the same fan-out GET /v1/sessions uses for the session list), grafted
// under the forward span whose SpanID the replica recorded as its remote
// parent.
func (l *LB) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("tid")
	out := FleetTrace{ID: tid}
	// All local proxy trees sharing the ID, newest first: a client that
	// propagates one traceparent across a submit and its polls records one
	// proxied-request tree per call, all under the same trace ID. Graft
	// into deep copies — the ring's traces are shared and read-only.
	var locals []*obs.Trace
	for _, t := range l.localTraces(tid) {
		if ct := copyTrace(t); ct != nil {
			locals = append(locals, ct)
		}
	}
	grafted := map[*obs.Trace]bool{}
	for _, b := range l.backends {
		// Any failure, 404 included, means this replica has no spans for tid.
		bt := new(obs.Trace)
		if !b.Admitted() || !l.getBackend(r, b, "/debug/traces/"+tid, bt) || bt.Root == nil {
			continue
		}
		bt.Root.SetStr("node", b.Name)
		out.Backends = append(out.Backends, b.Name)
		placed := false
		if bt.ParentSpanID != "" {
			for _, lt := range locals {
				if sp := lt.FindSpanID(bt.ParentSpanID); sp != nil {
					sp.Children = append(sp.Children, bt.Root)
					grafted[lt] = true
					placed = true
					break
				}
			}
		}
		if !placed {
			out.Orphans = append(out.Orphans, bt)
		}
	}
	// The primary tree is the proxied request that owns a replica subtree
	// (the update submit); the siblings — question polls, answers — are
	// summarized in Related.
	for _, lt := range locals {
		if grafted[lt] {
			out.Trace = lt
			break
		}
	}
	if out.Trace == nil && len(locals) > 0 {
		out.Trace = locals[0]
	}
	for _, lt := range locals {
		if lt != out.Trace {
			out.Related = append(out.Related, summarizeProxy(lt))
		}
	}
	if out.Trace == nil {
		// The balancer's copy was evicted (or another LB minted the ID);
		// surface what the fleet still knows rather than a flat 404.
		if len(out.Orphans) == 1 && len(out.Backends) == 1 {
			out.Trace, out.Orphans = out.Orphans[0], nil
			out.Partial = true
		} else if len(out.Orphans) > 0 {
			out.Partial = true
		} else {
			writeError(w, http.StatusNotFound, "no such trace in the fleet (evicted or never recorded)", 0)
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// localTraces returns every retained proxy trace with the given ID, newest
// first, searching both rings. The ID index alone is not enough: several
// proxied requests continuing one propagated trace context share an ID.
func (l *LB) localTraces(tid string) []*obs.Trace {
	if l.traces == nil {
		return nil
	}
	var out []*obs.Trace
	for _, t := range l.traces.List() {
		if t.ID == tid {
			out = append(out, t)
		}
	}
	for _, t := range l.traces.Kept() {
		if t.ID == tid {
			out = append(out, t)
		}
	}
	return out
}

// copyTrace deep-copies a trace through its wire form, so grafting replica
// subtrees never mutates the ring's stored copy.
func copyTrace(t *obs.Trace) *obs.Trace {
	data, err := json.Marshal(t)
	if err != nil {
		return nil
	}
	out := new(obs.Trace)
	if json.Unmarshal(data, out) != nil {
		return nil
	}
	return out
}
