// Package lb is the horizontal scale-out front tier for a clarifyd fleet: a
// session-affinity reverse proxy that lets N replicas serve what one daemon
// served before, while keeping the disambiguation protocol's statefulness
// intact — a parked OPTION 1/2 question can only be answered on the replica
// whose pipeline goroutine is parked on it.
//
// Routing has three layers:
//
//   - Placement: POST /v1/sessions picks a backend by consistent-hashing two
//     random placement keys onto the ring and keeping the less-loaded
//     candidate (power-of-two-choices, load from each backend's /readyz
//     payload: queue depth, then active sessions). Draining and ejected
//     backends receive no new sessions.
//   - Affinity: the session ID in the create response is pinned to the
//     creating backend; every /v1/sessions/{id}/... request follows the pin,
//     so updates, question polls, and answers land on the replica that owns
//     the session. Pins die on DELETE or after an idle TTL.
//   - Fallback: a session ID with no pin (the LB restarted under live
//     traffic) routes by consistent hash of the ID itself — deterministic,
//     and stable across LB replicas sharing the same backend fleet.
//
// A background prober drives the per-backend admitted/ejected state machine
// (see prober.go) so a dead replica is out of rotation within a few probe
// intervals and re-admitted only after consecutive successful probes, and a
// draining replica finishes its in-flight sessions before removal.
//
// Every response carries X-Clarify-Backend (which replica served it — the
// replica whose /debug/traces holds the update's trace) and X-Request-Id
// (generated when the client sent none, forwarded otherwise).
package lb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/server"
)

// Options configures a balancer.
type Options struct {
	// Backends are the replica root URLs (at least one).
	Backends []string
	// VirtualNodes is the per-backend point count on the hash ring
	// (default DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval / ProbeTimeout pace the background health prober
	// (defaults DefaultProbeInterval / DefaultProbeTimeout).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter is the consecutive-probe-failure threshold that ejects a
	// backend; ReadmitAfter the consecutive-success threshold that restores
	// it (defaults DefaultEjectAfter / DefaultReadmitAfter).
	EjectAfter   int
	ReadmitAfter int
	// AffinityTTL evicts session pins idle this long (default 30m; set it
	// to at least the replicas' -idle-ttl so the LB never forgets a session
	// before its replica does).
	AffinityTTL time.Duration
	// Logger receives routing and state-transition lines; nil disables.
	Logger *log.Logger
	// AccessLog receives one structured line per proxied request (trace ID,
	// backend, placement kind, status, duration); nil disables access
	// logging.
	AccessLog *slog.Logger
	// TraceBufferSize bounds the balancer's /debug/traces ring of per-request
	// proxy traces (default DefaultTraceBufferSize; negative disables
	// tracing entirely).
	TraceBufferSize int
	// TraceKeepSize bounds the tail-retention ring holding evicted error
	// traces (default DefaultTraceKeepSize; negative disables retention).
	TraceKeepSize int
	// Exemplars attaches trace-ID exemplars to the per-backend latency
	// histograms in the OpenMetrics exposition.
	Exemplars bool
	// Transport overrides the proxy and probe transport (tests inject
	// failures); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// LB is the balancer. It implements http.Handler; wire it into an
// http.Server and call Close to stop the prober and affinity janitor.
type LB struct {
	opts     Options
	backends []*Backend
	ring     *ring
	affinity *affinityTable
	prober   *prober
	mux      *http.ServeMux
	// proxy has no overall timeout: synchronous submits legitimately run
	// for minutes; the client's request context bounds each proxied call.
	proxy *http.Client

	// traces is the per-request proxy trace ring behind GET /debug/traces;
	// nil when tracing is disabled.
	traces *obs.Ring

	proxied     atomic.Int64 // requests forwarded to a backend
	noBackend   atomic.Int64 // requests refused for want of an eligible backend
	restored    atomic.Int64 // sessions re-placed via PUT .../restore
	gonePins    atomic.Int64 // affinity pins cleared by a backend's 410 Gone
	tracesTotal atomic.Int64 // proxy traces recorded
	started     time.Time
}

// New builds a balancer and starts its prober and affinity janitor.
func New(opts Options) (*LB, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("lb: at least one backend is required")
	}
	backends := make([]*Backend, 0, len(opts.Backends))
	seen := map[string]bool{}
	for _, raw := range opts.Backends {
		b, err := newBackend(raw)
		if err != nil {
			return nil, err
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("lb: duplicate backend %s", b.Name)
		}
		seen[b.Name] = true
		backends = append(backends, b)
	}
	l := &LB{
		opts:     opts,
		backends: backends,
		ring:     newRing(backends, opts.VirtualNodes),
		affinity: newAffinityTable(opts.AffinityTTL, 0),
		mux:      http.NewServeMux(),
		proxy:    &http.Client{Transport: opts.Transport},
		started:  time.Now(),
	}
	if size := opts.TraceBufferSize; size >= 0 {
		if size == 0 {
			size = DefaultTraceBufferSize
		}
		l.traces = obs.NewRing(size)
		if keep := opts.TraceKeepSize; keep >= 0 {
			if keep == 0 {
				keep = DefaultTraceKeepSize
			}
			l.traces.SetRetention(keep, keepProxyTrace)
		}
	}
	l.mux.HandleFunc("GET /healthz", l.handleHealthz)
	l.mux.HandleFunc("GET /metrics", l.handleMetrics)
	l.mux.HandleFunc("GET /debug/traces", l.handleDebugTraces)
	l.mux.HandleFunc("GET /debug/ambiguity", l.handleDebugAmbiguity)
	l.mux.HandleFunc("GET /debug/traces/{tid}", l.handleDebugTrace)
	l.mux.HandleFunc("POST /v1/sessions", l.handleCreate)
	l.mux.HandleFunc("GET /v1/sessions", l.handleList)
	l.mux.HandleFunc("/v1/sessions/{id}", l.handleSession)
	l.mux.HandleFunc("/v1/sessions/{id}/{rest...}", l.handleSession)
	l.mux.HandleFunc("PUT /v1/sessions/{id}/restore", l.handleRestore)
	l.prober = newProber(l, opts)
	go l.prober.run()
	return l, nil
}

// ServeHTTP implements http.Handler.
func (l *LB) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// Close stops the prober and the affinity janitor. In-flight proxied
// requests are unaffected (the owning http.Server drains them).
func (l *LB) Close() {
	l.prober.stop()
	l.affinity.Stop()
}

// Backends snapshots every backend's state and counters, admitted first,
// then by name, for /metrics and tests.
func (l *LB) Backends() []BackendSnapshot {
	out := make([]BackendSnapshot, 0, len(l.backends))
	for _, b := range l.backends {
		out = append(out, b.snapshot())
	}
	return out
}

// --- placement ---

// pickCreateBackend places a new session: two independent ring lookups on
// random placement keys, keeping the less-loaded candidate. With one
// eligible backend both lookups converge on it; with zero it returns nil.
func (l *LB) pickCreateBackend() *Backend {
	return l.pickCreateBackendExcluding(nil)
}

// pickCreateBackendExcluding is pickCreateBackend minus the backends a
// placement attempt has already struck out on (drained or unreachable
// faster than the prober could notice).
func (l *LB) pickCreateBackendExcluding(skip map[*Backend]bool) *Backend {
	eligible := func(b *Backend) bool { return b.AcceptsSessions() && !skip[b] }
	c1 := l.ring.Lookup(placementKey(), eligible)
	if c1 == nil {
		return nil
	}
	c2 := l.ring.Lookup(placementKey(), eligible)
	if c2 != nil && c2 != c1 && c2.lessLoaded(c1) {
		return c2
	}
	return c1
}

// placementKey is a fresh random key; math/rand/v2's top-level functions are
// goroutine-safe.
func placementKey() string {
	return strconv.FormatUint(rand.Uint64(), 36)
}

// routeSession resolves the backend owning a session: affinity pin first,
// consistent hash of the ID as the stateless fallback. The returned kind
// ("pin" or "ring") names the layer that decided, for traces and access logs.
func (l *LB) routeSession(id string) (*Backend, string) {
	if b := l.affinity.Get(id); b != nil {
		return b, "pin"
	}
	return l.ring.Lookup(id, func(b *Backend) bool { return b.Admitted() }), "ring"
}

// accepting counts backends currently accepting new sessions — the
// probe-derived state a placement decision consults.
func (l *LB) accepting() int {
	n := 0
	for _, b := range l.backends {
		if b.AcceptsSessions() {
			n++
		}
	}
	return n
}

// --- handlers ---

// placeSession forwards a session-placement request (create or restore),
// failing over across backends: a 503 — a replica mid-drain the prober has
// not caught yet — or a transport error strikes that backend from this
// attempt and retries the next-best placement, instead of bouncing a
// transient to the client. The request body is buffered once so it can be
// replayed per attempt. On success the chosen backend is returned; when no
// backend accepts, placeSession writes the error itself and returns nil.
func (l *LB) placeSession(pt *proxyTrace, w http.ResponseWriter, r *http.Request) (*http.Response, []byte, *Backend) {
	payload, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		pt.fail(http.StatusBadRequest, "read request")
		writeError(w, http.StatusBadRequest, "lb: read request: "+trimReason(err.Error()), 0)
		return nil, nil, nil
	}
	var skip map[*Backend]bool
	for attempt := 0; ; attempt++ {
		sp := pt.span("place")
		b := l.pickCreateBackendExcluding(skip)
		if b == nil {
			sp.SetStr("kind", "none")
			sp.End()
			break
		}
		kind := "p2c"
		if attempt > 0 {
			kind = "failover"
		}
		sp.SetStr("kind", kind)
		sp.SetStr("backend", b.Name)
		sp.SetInt("accepting", int64(l.accepting()))
		sp.End()
		pt.placement, pt.backend = kind, b.Name
		resp, body, err := l.forwardTo(pt, b, r, bytes.NewReader(payload))
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			pt.status = resp.StatusCode
			return resp, body, b
		}
		if skip == nil {
			skip = make(map[*Backend]bool)
		}
		skip[b] = true
	}
	l.noBackend.Add(1)
	pt.fail(http.StatusServiceUnavailable, "no backend accepting sessions")
	writeError(w, http.StatusServiceUnavailable, "no backend accepting sessions (all ejected or draining)", 1)
	return nil, nil, nil
}

func (l *LB) handleCreate(w http.ResponseWriter, r *http.Request) {
	pt := l.beginProxy(r)
	defer l.endProxy(pt, r)
	// The create response must be inspected for the session ID, so this
	// path buffers the (bounded) body instead of streaming it.
	resp, body, b := l.placeSession(pt, w, r)
	if b == nil {
		return // placeSession already answered
	}
	if resp.StatusCode == http.StatusCreated {
		var created server.CreateSessionResponse
		if json.Unmarshal(body, &created) == nil && created.ID != "" {
			l.affinity.Put(created.ID, b)
			b.recordCreate()
		}
	}
	writeProxied(w, resp, body, b, r)
}

func (l *LB) handleSession(w http.ResponseWriter, r *http.Request) {
	pt := l.beginProxy(r)
	defer l.endProxy(pt, r)
	id := r.PathValue("id")
	sp := pt.span("route")
	b, kind := l.routeSession(id)
	if b == nil {
		sp.SetStr("kind", "none")
		sp.End()
		l.noBackend.Add(1)
		pt.fail(http.StatusServiceUnavailable, "no backend for session")
		writeError(w, http.StatusServiceUnavailable, "no backend available for session "+id, 1)
		return
	}
	sp.SetStr("kind", kind)
	sp.SetStr("backend", b.Name)
	sp.SetBool("admitted", b.Admitted())
	sp.End()
	pt.placement, pt.backend = kind, b.Name
	if !b.Admitted() {
		// The pinned replica is inside an ejection window. The session may
		// yet survive (a drain, a network blip): tell the client to retry
		// rather than silently routing to a replica that never saw it.
		l.noBackend.Add(1)
		pt.fail(http.StatusServiceUnavailable, "pinned backend ejected")
		w.Header().Set(backendHeader, b.Name)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("backend %s holding session %s is ejected; retry", b.Name, id), 1)
		return
	}
	resp, body, err := l.forward(pt, b, w, r)
	if err != nil {
		return
	}
	pt.status = resp.StatusCode
	if r.Method == http.MethodDelete && resp.StatusCode < 300 {
		l.affinity.Remove(id)
	}
	if resp.StatusCode == http.StatusGone {
		// The replica has buried the session (TTL eviction, or a handoff this
		// LB never heard about). The pin is provably stale — clear it so a
		// restored session's next request routes by ring, not to the grave.
		if l.affinity.Get(id) != nil {
			l.affinity.Remove(id)
			l.gonePins.Add(1)
		}
	}
	writeProxied(w, resp, body, b, r)
}

// handleRestore places a rehydrated session: a draining replica (or an
// operator re-seeding from a snapshot file) PUTs the session's snapshot
// through the balancer, which picks a backend exactly like a create and
// pins the session there on success — so the client's next poll follows
// the pin to the replica now holding its parked question.
func (l *LB) handleRestore(w http.ResponseWriter, r *http.Request) {
	pt := l.beginProxy(r)
	defer l.endProxy(pt, r)
	id := r.PathValue("id")
	resp, body, b := l.placeSession(pt, w, r)
	if b == nil {
		return // placeSession already answered
	}
	if resp.StatusCode < 300 {
		l.affinity.Put(id, b)
		b.recordCreate()
		l.restored.Add(1)
	}
	writeProxied(w, resp, body, b, r)
}

// handleList fans the session listing out to every admitted backend and
// merges the results — the fleet-wide view of GET /v1/sessions.
func (l *LB) handleList(w http.ResponseWriter, r *http.Request) {
	merged := make([]server.SessionInfo, 0, 16)
	for _, b := range l.backends {
		var part []server.SessionInfo
		if b.Admitted() && l.getBackend(r, b, "/v1/sessions", &part) {
			merged = append(merged, part...)
		}
	}
	l.proxied.Add(1)
	writeJSON(w, http.StatusOK, merged)
}

// getBackend is the request path every balancer fan-out shares: GET path
// from one backend, count the round trip in the backend's request counters,
// and decode a 200 body of at most 16 MiB into v. It reports whether v was
// filled; any failure is "this backend has nothing to add".
func (l *LB) getBackend(r *http.Request, b *Backend, path string, v any) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.URL.String()+path, nil)
	if err != nil {
		return false
	}
	start := time.Now()
	resp, err := l.proxy.Do(req)
	if err != nil {
		b.recordRequest(0, time.Since(start), true, "")
		return false
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	b.recordRequest(resp.StatusCode, time.Since(start), false, "")
	return resp.StatusCode == http.StatusOK && json.Unmarshal(data, v) == nil
}

// handleHealthz reports the balancer's own liveness: healthy while at least
// one backend is admitted.
func (l *LB) handleHealthz(w http.ResponseWriter, r *http.Request) {
	admitted, accepting := 0, 0
	for _, b := range l.backends {
		if b.Admitted() {
			admitted++
		}
		if b.AcceptsSessions() {
			accepting++
		}
	}
	status := http.StatusOK
	state := "ok"
	if admitted == 0 {
		status = http.StatusServiceUnavailable
		state = "no-backends"
	}
	writeJSON(w, status, map[string]interface{}{
		"status":             state,
		"backends":           len(l.backends),
		"admitted":           admitted,
		"accepting_sessions": accepting,
	})
}

func (l *LB) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := l.snapshot()
	switch r.URL.Query().Get("format") {
	case "prometheus":
		p := &promtext.Writer{W: w}
		w.Header().Set("Content-Type", p.ContentType())
		writePrometheus(p, snap)
		return
	case "openmetrics":
		p := &promtext.Writer{W: w, OpenMetrics: true}
		w.Header().Set("Content-Type", p.ContentType())
		writePrometheus(p, snap)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// --- proxy mechanics ---

const (
	backendHeader   = "X-Clarify-Backend"
	requestIDHeader = "X-Request-Id"
)

// hopHeaders are the hop-by-hop headers a proxy must not forward.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// forward proxies one request to b and returns the backend's response with
// its (bounded) body read. On a transport failure it answers 502 itself and
// returns an error. The caller writes the response via writeProxied.
func (l *LB) forward(pt *proxyTrace, b *Backend, w http.ResponseWriter, r *http.Request) (*http.Response, []byte, error) {
	resp, body, err := l.forwardTo(pt, b, r, io.LimitReader(r.Body, 32<<20))
	if err != nil {
		pt.fail(http.StatusBadGateway, "backend unreachable")
		w.Header().Set(backendHeader, b.Name)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("backend %s unreachable: %s", b.Name, trimReason(err.Error())), 1)
	}
	return resp, body, err
}

// forwardTo proxies one request to b with the given body, returning the
// backend's response with its (bounded) body read. Unlike forward it never
// writes to the client — callers that can fail the request over to another
// backend (session placement) inspect the error themselves.
//
// Each attempt gets its own forward span, and that span's ID is what the
// injected traceparent carries — the replica records it as its remote
// parent, which is the joint the fleet trace view stitches on.
func (l *LB) forwardTo(pt *proxyTrace, b *Backend, r *http.Request, bodyIn io.Reader) (*http.Response, []byte, error) {
	outURL := *b.URL
	outURL.Path = r.URL.Path
	outURL.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, outURL.String(), bodyIn)
	if err != nil {
		return nil, nil, fmt.Errorf("lb: build request: %w", err)
	}
	req.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		req.Header.Del(h)
	}
	req.Header.Set(requestIDHeader, pt.reqID)
	sp := pt.span("forward")
	sp.SetStr("backend", b.Name)
	if tp := pt.t.TraceParentFor(sp); tp.Valid() {
		req.Header.Set(obs.TraceParentHeader, tp.String())
	}
	if prior := r.RemoteAddr; prior != "" {
		req.Header.Set("X-Forwarded-For", prior)
	}

	start := time.Now()
	resp, err := l.proxy.Do(req)
	if err != nil {
		sp.SetStr("error", trimReason(err.Error()))
		sp.End()
		l.recordProxied(pt, b, 0, time.Since(start), true)
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		sp.SetStr("error", trimReason(err.Error()))
		sp.End()
		l.recordProxied(pt, b, 0, time.Since(start), true)
		return nil, nil, fmt.Errorf("read response: %w", err)
	}
	sp.SetInt("status", int64(resp.StatusCode))
	sp.End()
	l.recordProxied(pt, b, resp.StatusCode, time.Since(start), false)
	// The request ID travels back on the response so the client can quote
	// it; stash it on the response for writeProxied.
	resp.Header.Set(requestIDHeader, pt.reqID)
	return resp, body, nil
}

// recordProxied folds one forward attempt into the backend's counters,
// attaching a trace-ID exemplar when exemplars are enabled and this request
// is traced.
func (l *LB) recordProxied(pt *proxyTrace, b *Backend, status int, d time.Duration, transportErr bool) {
	traceID := ""
	if l.opts.Exemplars && pt.t != nil {
		traceID = pt.t.ID
	}
	b.recordRequest(status, d, transportErr, traceID)
	l.proxied.Add(1)
}

// writeProxied relays the backend's response, stamping the backend identity
// so clients and tests can correlate responses (and /debug/traces lookups)
// to the replica that served them.
func writeProxied(w http.ResponseWriter, resp *http.Response, body []byte, b *Backend, r *http.Request) {
	for k, vv := range resp.Header {
		if isHopHeader(k) {
			continue
		}
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(backendHeader, b.Name)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if http.CanonicalHeaderKey(h) == http.CanonicalHeaderKey(k) {
			return true
		}
	}
	return false
}

func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }

// newRequestID mints a compact random request identifier.
func newRequestID() string {
	return "r" + strconv.FormatUint(rand.Uint64(), 36)
}

// --- response helpers (same wire shapes as the server package) ---

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, server.ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}
