// Package lb is the horizontal scale-out front tier for a clarifyd fleet: a
// session-affinity reverse proxy that lets N replicas serve what one daemon
// served before, while keeping the disambiguation protocol's statefulness
// intact — a parked OPTION 1/2 question can only be answered on the replica
// whose pipeline goroutine is parked on it.
//
// Routing has two layers:
//
//   - Placement: POST /v1/sessions takes two independent uniform draws over
//     the backends that accept sessions and keeps the less-loaded candidate
//     (power-of-two-choices, load from each backend's /readyz payload: queue
//     depth, then active sessions). Draining and ejected backends receive no
//     new sessions.
//   - Pin: the session ID in the create response is pinned to the creating
//     backend; every /v1/sessions/{id}/... request follows the pin, so
//     updates, question polls, and answers land on the replica that owns the
//     session. Pins die on DELETE, on a 410 Gone, or after an idle TTL. A
//     session with no pin (the balancer restarted, or another balancer placed
//     it) is looked up: each admitted replica is asked for it, and the one
//     holding it is pinned. The owner cannot be derived from the ID, because
//     replicas mint IDs and a handoff moves a session under its ID.
//
// A background prober drives the per-backend admitted/ejected state machine
// (see prober.go) so a dead replica is out of rotation within a few probe
// intervals and re-admitted only after consecutive successful probes, and a
// draining replica finishes its in-flight sessions before removal.
//
// Every response carries X-Clarify-Backend (which replica served it — the
// replica whose /debug/traces holds the update's trace) and X-Request-Id
// (forwarded, or the trace ID of the context the balancer mints when the
// client sent none). The balancer records no trace of its own.
package lb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/internal/wire"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/server"
)

// Options configures a balancer.
type Options struct {
	// Backends are the replica root URLs (at least one).
	Backends []string
	// ProbeInterval / ProbeTimeout pace the background health prober
	// (defaults DefaultProbeInterval / DefaultProbeTimeout).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter is the consecutive-probe-failure threshold that ejects a
	// backend; ReadmitAfter the consecutive-success threshold that restores
	// it (defaults DefaultEjectAfter / DefaultReadmitAfter).
	EjectAfter   int
	ReadmitAfter int
	// Logger receives routing and state-transition lines; nil disables.
	Logger *log.Logger
	// AccessLog receives one structured line per proxied request (request
	// and trace IDs, backend, placement kind, status, duration); nil
	// disables access logging.
	AccessLog *slog.Logger
	// Transport overrides the proxy and probe transport (tests inject
	// failures); nil uses the balancer's own, which keeps up to
	// backendIdleConns idle connections per backend.
	Transport http.RoundTripper
}

// backendIdleConns bounds the idle connections the balancer's own transport
// keeps per backend. http.DefaultTransport keeps 2: with more requests than
// that in flight to one replica, the balancer would close a connection
// after each reply and dial a new one for the next request.
const backendIdleConns = 64

// affinityTTL evicts session pins idle this long. A session whose pin is
// gone is found again by one lookup, so the pins need not outlast the
// replicas' own idle TTL; the bound only keeps abandoned pins from piling up.
const affinityTTL = 30 * time.Minute

// LB is the balancer. It implements http.Handler; wire it into an
// http.Server and call Close to stop the prober and affinity janitor.
type LB struct {
	opts     Options
	backends []*Backend
	affinity *affinityTable
	prober   *prober
	mux      *http.ServeMux

	proxied   atomic.Int64 // requests forwarded to a backend
	noBackend atomic.Int64 // requests refused for want of an eligible backend
	restored  atomic.Int64 // sessions re-placed via PUT .../restore
	gonePins  atomic.Int64 // affinity pins cleared by a backend's 410 Gone
	started   time.Time
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
	if opts.Transport == nil {
		// One transport for proxy and prober. The fleet is fixed, so the
		// per-backend bound also bounds the total.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 0
		t.MaxIdleConnsPerHost = backendIdleConns
		opts.Transport = t
	}
	l := &LB{
		opts:     opts,
		backends: backends,
		affinity: newAffinityTable(affinityTTL, time.Minute),
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	l.mux.HandleFunc("GET /healthz", l.handleHealthz)
	l.mux.HandleFunc("GET /metrics", l.handleMetrics)
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

// Close stops the prober and the affinity janitor, and closes the idle
// backend connections of the transport the proxy and prober share.
// In-flight proxied requests are unaffected (the owning http.Server drains
// them).
func (l *LB) Close() {
	l.prober.stop()
	l.affinity.Stop()
	if t, ok := l.opts.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}

// Backends snapshots every backend's state and counters, in the order the
// backends were configured, for /metrics and tests.
func (l *LB) Backends() []BackendSnapshot {
	out := make([]BackendSnapshot, 0, len(l.backends))
	for _, b := range l.backends {
		out = append(out, b.snapshot())
	}
	return out
}

// --- placement ---

// pickCreateBackend places a new session: two independent uniform draws
// over the backends that accept sessions, minus those a placement attempt
// has already struck out on (skip: drained or unreachable faster than the
// prober could notice), keeping the less-loaded candidate. With one
// eligible backend both draws land on it; with none it returns nil.
func (l *LB) pickCreateBackend(skip map[*Backend]bool) *Backend {
	eligible := make([]*Backend, 0, len(l.backends))
	for _, b := range l.backends {
		if b.AcceptsSessions() && !skip[b] {
			eligible = append(eligible, b)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	// math/rand/v2's top-level functions are goroutine-safe.
	c1, c2 := eligible[rand.IntN(len(eligible))], eligible[rand.IntN(len(eligible))]
	if c2.lessLoaded(c1) {
		return c2
	}
	return c1
}

// findSession routes a session with no pin by asking each admitted backend,
// in configuration order, for GET /v1/sessions/{id}. It pins and returns
// the first that answers 200. Failing that it returns a backend that
// answered 410 Gone, unpinned, so the client gets that replica's own
// tombstone reply. Otherwise findSession answers itself and returns nil:
// 404 when every admitted backend answered that it does not hold the
// session, 503 when none is admitted or one gave no definite answer.
func (l *LB) findSession(pr *proxyReq, w http.ResponseWriter, r *http.Request, id string) *Backend {
	path := "/v1/sessions/" + url.PathEscape(id)
	var gone *Backend
	asked, unsure := 0, false
	for _, b := range l.backends {
		if !b.Admitted() {
			continue
		}
		asked++
		switch l.getBackend(r, b, path, nil) {
		case http.StatusOK:
			l.affinity.Put(id, b)
			return b
		case http.StatusGone:
			gone = b
		case http.StatusNotFound: // a definite "not here"
		default:
			unsure = true
		}
	}
	switch {
	case gone != nil:
		return gone
	case asked == 0 || unsure:
		l.noBackend.Add(1)
		pr.fail(http.StatusServiceUnavailable, "no backend for session")
		writeError(w, http.StatusServiceUnavailable, "no backend could be asked for session "+id+"; retry", 1)
	default:
		pr.fail(http.StatusNotFound, "no backend holds session")
		writeError(w, http.StatusNotFound, "no backend holds session "+id, 0)
	}
	return nil
}

// --- handlers ---

// placeSession forwards a session-placement request (create or restore),
// failing over across backends: a 503 — a replica mid-drain the prober has
// not caught yet — or a transport error strikes that backend from this
// attempt and retries the next-best placement, instead of bouncing a
// transient to the client. The request body, read once, is replayed per
// attempt. On success the chosen backend is returned; when the body is
// refused or no backend accepts, placeSession writes the error itself and
// returns nil.
func (l *LB) placeSession(pr *proxyReq, w http.ResponseWriter, r *http.Request) (*http.Response, []byte, *Backend) {
	payload, ok := readRequest(pr, w, r)
	if !ok {
		return nil, nil, nil
	}
	var skip map[*Backend]bool
	for attempt := 0; ; attempt++ {
		b := l.pickCreateBackend(skip)
		if b == nil {
			break
		}
		pr.placement, pr.backend = "p2c", b.Name
		if attempt > 0 {
			pr.placement = "failover"
		}
		resp, body, err := l.forwardTo(pr, b, r, payload)
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			pr.status = resp.StatusCode
			return resp, body, b
		}
		if skip == nil {
			skip = make(map[*Backend]bool)
		}
		skip[b] = true
	}
	l.noBackend.Add(1)
	pr.fail(http.StatusServiceUnavailable, "no backend accepting sessions")
	writeError(w, http.StatusServiceUnavailable, "no backend accepting sessions (all ejected or draining)", 1)
	return nil, nil, nil
}

func (l *LB) handleCreate(w http.ResponseWriter, r *http.Request) {
	pr := beginProxy(r)
	defer l.endProxy(pr, r)
	resp, body, b := l.placeSession(pr, w, r)
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
	pr := beginProxy(r)
	defer l.endProxy(pr, r)
	// Read the body first: one over the bound is refused before any lookup.
	payload, ok := readRequest(pr, w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	pr.placement = "pin"
	b := l.affinity.Get(id)
	if b == nil {
		pr.placement = "lookup"
		if b = l.findSession(pr, w, r, id); b == nil {
			return // findSession already answered
		}
	}
	pr.backend = b.Name
	if !b.Admitted() {
		// The pinned replica is inside an ejection window. The session may
		// yet survive (a drain, a network blip): tell the client to retry
		// rather than silently routing to a replica that never saw it.
		l.noBackend.Add(1)
		pr.fail(http.StatusServiceUnavailable, "pinned backend ejected")
		w.Header().Set(backendHeader, b.Name)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("backend %s holding session %s is ejected; retry", b.Name, id), 1)
		return
	}
	resp, body, err := l.forward(pr, b, w, r, payload)
	if err != nil {
		return
	}
	pr.status = resp.StatusCode
	if r.Method == http.MethodDelete && resp.StatusCode < 300 {
		l.affinity.Remove(id)
	}
	// The replica has buried the session (TTL eviction, or a handoff this
	// balancer never heard about). The pin is provably stale: clear it, so
	// the session's next request looks it up instead of going to the grave.
	if resp.StatusCode == http.StatusGone && l.affinity.Remove(id) {
		l.gonePins.Add(1)
	}
	writeProxied(w, resp, body, b, r)
}

// handleRestore places a rehydrated session: a draining replica (or an
// operator re-seeding from a snapshot file) PUTs the session's snapshot
// through the balancer, which picks a backend exactly like a create and
// pins the session there on success — so the client's next poll follows
// the pin to the replica now holding its parked question.
func (l *LB) handleRestore(w http.ResponseWriter, r *http.Request) {
	pr := beginProxy(r)
	defer l.endProxy(pr, r)
	id := r.PathValue("id")
	resp, body, b := l.placeSession(pr, w, r)
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
		if b.Admitted() && l.getBackend(r, b, "/v1/sessions", &part) == http.StatusOK {
			merged = append(merged, part...)
		}
	}
	l.proxied.Add(1)
	wire.WriteJSON(w, http.StatusOK, merged)
}

// getBackend is the balancer's fan-out request, for the session listing
// and the lookup of a session with no pin: GET path from one backend,
// count the round trip in the backend's request counters, and decode a 200
// body of at most 16 MiB into v unless v is nil. It returns the backend's
// status, or 0 when the backend could not be reached or its reply could
// not be read or decoded.
func (l *LB) getBackend(r *http.Request, b *Backend, path string, v any) int {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.URL.String()+path, nil)
	if err != nil {
		return 0
	}
	start := time.Now()
	resp, err := l.opts.Transport.RoundTrip(req)
	if err != nil {
		b.recordRequest(0, time.Since(start), true)
		return 0
	}
	data, err := wire.ReadBody(resp.Body, resp.ContentLength, 16<<20)
	resp.Body.Close()
	b.recordRequest(resp.StatusCode, time.Since(start), false)
	if err != nil || (resp.StatusCode == http.StatusOK && v != nil && json.Unmarshal(data, v) != nil) {
		return 0
	}
	return resp.StatusCode
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
	wire.WriteJSON(w, status, map[string]interface{}{
		"status":             state,
		"backends":           len(l.backends),
		"admitted":           admitted,
		"accepting_sessions": accepting,
	})
}

func (l *LB) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := l.snapshot()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", promtext.ContentType)
		writePrometheus(&promtext.Writer{W: w}, snap)
		return
	}
	wire.WriteJSON(w, http.StatusOK, snap)
}

// --- proxy mechanics ---

const (
	backendHeader   = "X-Clarify-Backend"
	requestIDHeader = "X-Request-Id"
)

// maxBody bounds a relayed request or reply body, which the balancer holds
// whole in memory.
const maxBody = 32 << 20

// proxyReq carries one proxied request's correlation IDs and the fields of
// its access-log line.
type proxyReq struct {
	reqID   string
	traceID string
	// traceParent is the context minted for a caller that sent no valid
	// traceparent; empty when the caller's own is forwarded untouched.
	traceParent string
	start       time.Time
	// placement is how the backend was chosen: pin, lookup, p2c, or
	// failover.
	placement string
	backend   string
	status    int
	errMsg    string
}

// beginProxy resolves a request's correlation IDs. A caller's valid W3C
// traceparent (clarify -remote sends one) goes to the replica untouched;
// otherwise the balancer mints one. Its span ID names no recorded span —
// the balancer records nothing — and its trace ID doubles as the request
// ID when the caller sent no X-Request-Id, so the response header, the
// access log, the replica's update traceId and a handed-off update's trace
// ID are one identifier.
func beginProxy(r *http.Request) *proxyReq {
	pr := &proxyReq{reqID: r.Header.Get(requestIDHeader), start: time.Now()}
	tp, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
	if !ok {
		tp = obs.TraceParent{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
		pr.traceParent = tp.String()
	}
	pr.traceID = tp.TraceID
	if pr.reqID == "" {
		pr.reqID = tp.TraceID
	}
	return pr
}

// fail records a balancer-originated error response (no backend reached, or
// the one reached was unusable).
func (pr *proxyReq) fail(status int, msg string) {
	pr.status = status
	pr.errMsg = msg
}

// endProxy emits the request's access-log line. Call via defer so every
// exit path is covered.
func (l *LB) endProxy(pr *proxyReq, r *http.Request) {
	if l.opts.AccessLog == nil {
		return
	}
	level := slog.LevelInfo
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("requestId", pr.reqID),
		slog.String("traceId", pr.traceID),
		slog.Int("status", pr.status),
		slog.Float64("durationMs", float64(time.Since(pr.start))/float64(time.Millisecond)),
	}
	if pr.backend != "" {
		attrs = append(attrs, slog.String("backend", pr.backend))
	}
	if pr.placement != "" {
		attrs = append(attrs, slog.String("placement", pr.placement))
	}
	if pr.errMsg != "" {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", pr.errMsg))
	}
	l.opts.AccessLog.LogAttrs(r.Context(), level, "proxied", attrs...)
}

// readRequest reads r's body whole, for relaying. A body over maxBody,
// declared or chunked, is answered 413 here and never reaches a backend;
// one that fails to arrive is answered 400. ok is false when readRequest
// has answered.
func readRequest(pr *proxyReq, w http.ResponseWriter, r *http.Request) (payload []byte, ok bool) {
	payload, err := wire.ReadBody(r.Body, r.ContentLength, maxBody)
	if err == nil {
		return payload, true
	}
	status := http.StatusBadRequest
	var tooLarge *wire.TooLargeError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	pr.fail(status, "read request")
	writeError(w, status, "lb: read request: "+trimReason(err.Error()), 0)
	return nil, false
}

// forward relays r, with its body payload, to b and returns the backend's
// response with its body read. On a transport failure it answers 502
// itself and returns an error. The caller writes the response via
// writeProxied.
func (l *LB) forward(pr *proxyReq, b *Backend, w http.ResponseWriter, r *http.Request, payload []byte) (*http.Response, []byte, error) {
	resp, body, err := l.forwardTo(pr, b, r, payload)
	if err != nil {
		pr.fail(http.StatusBadGateway, "backend unreachable")
		w.Header().Set(backendHeader, b.Name)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("backend %s unreachable: %s", b.Name, trimReason(err.Error())), 1)
	}
	return resp, body, err
}

// forwardTo relays r to b with payload as its body, framed by its length
// (no body at all when payload is empty), so the transport sends the
// request in one write. It returns the backend's response with its body
// read. Unlike forward it never writes to the client — callers that can
// fail the request over to another backend (session placement) inspect
// the error themselves. Every attempt carries the request's ID and trace
// context, and appends the client's address to X-Forwarded-For. The
// request goes straight to the transport, not through an http.Client, so
// a backend's redirect is relayed, not followed. No timeout applies beyond
// the client's request context: a reply that waits on an update holds for
// at most the replica's 5 s long-poll bound.
func (l *LB) forwardTo(pr *proxyReq, b *Backend, r *http.Request, payload []byte) (*http.Response, []byte, error) {
	u := *b.URL
	u.Path, u.RawPath, u.RawQuery = r.URL.Path, r.URL.RawPath, r.URL.RawQuery
	h := make(http.Header, len(r.Header)+3)
	copyEndToEnd(h, r.Header)
	h.Set(requestIDHeader, pr.reqID)
	if pr.traceParent != "" {
		h.Set(obs.TraceParentHeader, pr.traceParent)
	}
	if ip, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if prior := r.Header.Values("X-Forwarded-For"); len(prior) > 0 {
			ip = strings.Join(prior, ", ") + ", " + ip
		}
		h.Set("X-Forwarded-For", ip)
	}
	req := &http.Request{Method: r.Method, URL: &u, Header: h, Body: http.NoBody}
	if len(payload) > 0 {
		req.ContentLength = int64(len(payload))
		req.Body = io.NopCloser(bytes.NewReader(payload))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(payload)), nil }
	}

	start := time.Now()
	resp, err := l.opts.Transport.RoundTrip(req.WithContext(r.Context()))
	if err != nil {
		l.recordProxied(b, 0, time.Since(start), true)
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body, resp.ContentLength, maxBody)
	if err != nil {
		l.recordProxied(b, 0, time.Since(start), true)
		return nil, nil, fmt.Errorf("read response: %w", err)
	}
	l.recordProxied(b, resp.StatusCode, time.Since(start), false)
	// The request ID travels back on the response so the client can quote
	// it; stash it on the response for writeProxied.
	resp.Header.Set(requestIDHeader, pr.reqID)
	return resp, body, nil
}

// recordProxied folds one forward attempt into the backend's counters.
func (l *LB) recordProxied(b *Backend, status int, d time.Duration, transportErr bool) {
	b.recordRequest(status, d, transportErr)
	l.proxied.Add(1)
}

// writeProxied relays the backend's response, framed by its length,
// stamping the backend identity so clients and tests can correlate
// responses (and /debug/traces lookups) to the replica that served them.
func writeProxied(w http.ResponseWriter, resp *http.Response, body []byte, b *Backend, r *http.Request) {
	h := w.Header()
	copyEndToEnd(h, resp.Header)
	h.Set(backendHeader, b.Name)
	if r.Method != http.MethodHead {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// copyEndToEnd adds src's end-to-end headers to dst: all but the
// hop-by-hop ones, which are the fixed names of RFC 9110 §7.6.1 and any
// that src's Connection header names. dst shares src's value slices, so a
// caller replaces a copied header with Set and never appends to it.
func copyEndToEnd(dst, src http.Header) {
	conn := src["Connection"]
	for k, vv := range src {
		if !isHopHeader(k) && !connectionNames(conn, k) {
			dst[k] = vv
		}
	}
}

// isHopHeader reports whether the canonical header key k is one of the
// fixed hop-by-hop headers a proxy must not forward.
func isHopHeader(k string) bool {
	switch k {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// connectionNames reports whether the Connection header values conn name
// the header k, which makes k hop-by-hop for this message.
func connectionNames(conn []string, k string) bool {
	for _, v := range conn {
		for v != "" {
			var name string
			name, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(name), k) {
				return true
			}
		}
	}
	return false
}

func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }

// writeError answers with the daemon's ErrorResponse shape.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	wire.WriteJSON(w, status, server.ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}
