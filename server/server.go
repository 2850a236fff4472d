package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/internal/wire"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/symbolic"
)

// Options configures a Server. The zero value is usable: 4 workers, a
// queue of 8, 1024 sessions, 30-minute idle TTL, 1-minute question timeout,
// SimLLM sessions, and discarded logs.
type Options struct {
	// Workers is the number of pipeline workers (default 4).
	Workers int
	// QueueSize bounds the submission queue (default 2×Workers). Beyond it,
	// submits are rejected with 429 + Retry-After.
	QueueSize int
	// MaxSessions caps live sessions (default 1024); creates beyond it get
	// 503.
	MaxSessions int
	// IdleTTL evicts sessions with no traffic for this long (default 30m).
	IdleTTL time.Duration
	// SweepInterval is the janitor period (default IdleTTL/4, capped at 1m).
	SweepInterval time.Duration
	// QuestionTimeout aborts an update whose disambiguation question goes
	// unanswered for this long (default 1m).
	QuestionTimeout time.Duration
	// NewClient builds the LLM client for each new session (default
	// llm.NewSimLLM). A shared stateless client may be returned.
	NewClient func() llm.Client
	// Logger receives one structured line per request; nil disables logging.
	Logger *log.Logger
	// MaxConfigBytes bounds uploaded configurations (default 4 MiB).
	MaxConfigBytes int64
	// UpdateTimeout bounds each update's wall-clock budget, measured from
	// when a worker picks the job up (default 2m; negative disables). The
	// budget covers LLM calls, retries, and time parked on an unanswered
	// disambiguation question.
	UpdateTimeout time.Duration
	// Resilience, when non-nil, is the circuit-breaker + fallback stack the
	// sessions' LLM clients are built around. The server only reads it — for
	// degraded-mode health reporting and /metrics — so it must be the same
	// stack NewClient wires into sessions.
	Resilience *resilience.Stack
	// Journal, when non-nil, is the flight recorder every hosted session
	// appends to: one durable record per update (see the journal package).
	// The server does not close it; the owner does, after Shutdown.
	Journal *journal.Journal
}

// DefaultUpdateTimeout is the per-update deadline when Options.UpdateTimeout
// is zero.
const DefaultUpdateTimeout = 2 * time.Minute

// Server hosts concurrent clarify.Sessions behind a JSON HTTP API. It
// implements http.Handler; wire it into an http.Server (or httptest) and
// call Shutdown to drain.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	pool   *pool
	mgr    *manager
	met    *metrics
	amb    *ambiguityMetrics
	traces *obs.Ring
	spaces *symbolic.SpaceCache // shared across all hosted sessions

	baseCtx context.Context
	cancel  context.CancelFunc
	// drain is closed when draining starts, releasing every reply waiting
	// on an update: long-polls, submits and answers.
	drain     chan struct{}
	drainOnce sync.Once
	active    atomic.Int64 // updates executing or parked on a question

	// restoreWG tracks re-execution goroutines for rehydrated pending
	// updates; Shutdown waits for them alongside the pool so a drain
	// snapshot can capture their state.
	restoreWG sync.WaitGroup

	// Snapshot/restore counters for /metrics.
	snapshotted     atomic.Int64
	restored        atomic.Int64
	restoreFailures atomic.Int64
}

// New builds a Server from opts.
func New(opts Options) *Server {
	if opts.NewClient == nil {
		opts.NewClient = func() llm.Client { return llm.NewSimLLM() }
	}
	if opts.QuestionTimeout <= 0 {
		opts.QuestionTimeout = time.Minute
	}
	if opts.MaxConfigBytes <= 0 {
		opts.MaxConfigBytes = 4 << 20
	}
	if opts.UpdateTimeout == 0 {
		opts.UpdateTimeout = DefaultUpdateTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	met := newMetrics()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		pool:    newPool(opts.Workers, opts.QueueSize, func(interface{}) { met.recordPanic() }),
		mgr:     newManager(opts.MaxSessions, opts.IdleTTL, opts.SweepInterval),
		met:     met,
		amb:     newAmbiguityMetrics(),
		traces:  obs.NewRing(traceRingSize),
		spaces:  symbolic.NewSpaceCache(),
		baseCtx: ctx,
		cancel:  cancel,
		drain:   make(chan struct{}),
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("POST /v1/sessions", s.handleCreateSession)
	s.route("PUT /v1/sessions/{id}/restore", s.handleRestoreSession)
	s.route("GET /v1/sessions", s.handleListSessions)
	s.route("GET /v1/sessions/{id}", s.handleGetSession)
	s.route("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.route("POST /v1/sessions/{id}/updates", s.handleSubmit)
	s.route("GET /v1/sessions/{id}/updates/{uid}", s.handleGetUpdate)
	s.route("GET /v1/sessions/{id}/question", s.handleQuestion)
	s.route("POST /v1/sessions/{id}/answer", s.handleAnswer)
	s.route("GET /v1/sessions/{id}/config", s.handleConfig)
	s.route("GET /v1/sessions/{id}/stats", s.handleStats)
	s.route("GET /debug/traces", s.handleDebugTraces)
	s.route("GET /debug/traces/{tid}", s.handleDebugTrace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler wrapped with metrics and request logging, keyed
// by the route pattern so per-endpoint counters aggregate across sessions.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		end := s.met.begin(pattern)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		end(rec.status)
		if s.opts.Logger != nil {
			s.opts.Logger.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
		}
	})
}

// statusRecorder captures the response code for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Shutdown drains the server: new submissions are rejected, replies waiting
// on an update return at once, queued and running updates are given until
// ctx expires to finish, then any still parked on questions are
// force-cancelled. Always returns after the pool has fully stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.startDrain()
	err := s.pool.Close(ctx)
	if err == nil {
		// The pool is drained; rehydrated-update goroutines (which run off
		// the pool) get the remaining budget.
		done := make(chan struct{})
		go func() { s.restoreWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		// Grace period exhausted: release goroutines parked on answers or
		// LLM calls, then wait for the drain to complete.
		s.cancel()
		s.pool.Wait()
		s.restoreWG.Wait()
	}
	s.cancel()
	s.mgr.Stop()
	return err
}

// startDrain flips the server to draining and releases every waiting
// reply. It is idempotent: DrainForHandoff and Shutdown both call it.
func (s *Server) startDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// draining reports whether DrainForHandoff or Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// --- handlers ---

// health assembles the load signals both probes share; a fronting balancer
// reads them for load-aware create placement and drain detection.
func (s *Server) health() HealthStatus {
	return HealthStatus{
		Draining:       s.draining(),
		ActiveSessions: s.mgr.Len(),
		ActiveUpdates:  s.active.Load(),
		QueueDepth:     s.pool.Depth(),
		QueueCapacity:  s.pool.Capacity(),
	}
}

// handleHealthz is the liveness probe: 503 only while draining. A daemon
// running on its fallback backend is alive — it reports 200 with a degraded
// payload rather than getting restarted by an orchestrator.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	body := s.health()
	body.Status = "ok"
	if body.Draining {
		status = http.StatusServiceUnavailable
		body.Status = "draining"
	} else if s.opts.Resilience.Degraded() {
		body.Status = "degraded"
		body.LLM = "fallback"
	}
	wire.WriteJSON(w, status, body)
}

// handleReadyz is the readiness probe: 503 while draining or when the LLM
// path cannot serve at all (breaker open with no fallback configured).
// Degraded-but-serving still reports ready, flagged in the payload.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	body := s.health()
	body.Status = "ready"
	switch {
	case body.Draining:
		status = http.StatusServiceUnavailable
		body.Status = "draining"
	case !s.opts.Resilience.CanServe():
		status = http.StatusServiceUnavailable
		body.Status = "unready"
		body.LLM = "breaker-open"
	case s.opts.Resilience.Degraded():
		body.Status = "degraded"
		body.LLM = "fallback"
	}
	wire.WriteJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.snapshot()
	snap.QueueDepth = s.pool.Depth()
	snap.QueueCapacity = s.pool.Capacity()
	snap.Workers = s.pool.Workers()
	snap.ActiveUpdates = s.active.Load()
	snap.Sessions = s.mgr.Len()
	snap.EvictedSessions = s.mgr.Evicted()
	snap.SnapshottedSessions = s.snapshotted.Load()
	snap.RestoredSessions = s.restored.Load()
	snap.RestoreFailures = s.restoreFailures.Load()
	snap.Pipeline = s.mgr.CumulativeStats()
	snap.SpaceCache = s.spaces.Stats()
	snap.Traces = s.traces.Total()
	if s.opts.Resilience != nil {
		snap.Resilience = s.opts.Resilience.Stats()
	}
	if s.opts.Journal != nil {
		js := s.opts.Journal.Stats()
		snap.Journal = &js
	}
	snap.Ambiguity = s.amb.snapshot()
	snap.Runtime = readRuntimeStats()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", promtext.ContentType)
		writePrometheus(&promtext.Writer{W: w}, snap)
		return
	}
	wire.WriteJSON(w, http.StatusOK, snap)
}

// handleCreateSession starts a session on the body's configuration. It
// answers 201 with the session ID, 400 for an unreadable body or a missing
// config, 413 for a body over MaxConfigBytes, 422 for a configuration that
// does not parse, and 503 while draining or at the session cap.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	body, ok := readBody(w, r, s.opts.MaxConfigBytes)
	if !ok {
		return
	}
	var req CreateSessionRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}
	if req.Config == "" {
		writeError(w, http.StatusBadRequest, "config is required", 0)
		return
	}
	cfg, err := ios.Parse(req.Config)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "parse config: "+err.Error(), 0)
		return
	}
	sess := &clarify.Session{
		Client:           s.opts.NewClient(),
		Config:           cfg,
		MaxAttempts:      req.MaxAttempts,
		EnableReuse:      req.EnableReuse,
		SkipVerification: req.SkipVerification,
		SpaceCache:       s.spaces,
		Journal:          s.opts.Journal,
	}
	sn, err := s.mgr.Create(sess)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
		return
	}
	// Label the session's journal records with its ID; the session has not
	// served an update yet, so the write is unobserved.
	sess.JournalSession = sn.id
	sn.setConfig(cfg)
	wire.WriteJSON(w, http.StatusCreated, CreateSessionResponse{ID: sn.id})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.List()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sn := range sessions {
		out = append(out, sn.info())
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// lookupSession resolves a path session ID, answering 410 Gone for a
// session that died (with the tombstoned reason) and 404 for an ID that was
// never here.
func (s *Server) lookupSession(w http.ResponseWriter, id string) (*session, bool) {
	sn, ok := s.mgr.Get(id)
	if ok {
		return sn, true
	}
	if reason, dead := s.mgr.Tombstone(id); dead {
		writeGone(w, id, reason)
		return nil, false
	}
	writeError(w, http.StatusNotFound, "no such session", 0)
	return nil, false
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	wire.WriteJSON(w, http.StatusOK, sn.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Delete(id) {
		if reason, dead := s.mgr.Tombstone(id); dead {
			writeGone(w, id, reason)
			return
		}
		writeError(w, http.StatusNotFound, "no such session", 0)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSubmit is the hot path: reserve the session and enqueue the
// pipeline on the worker pool, shedding with 429 + Retry-After when the
// queue is full. It replies with the update's view: at once, or with
// ?after=N the view the update's long-poll would return, so the first
// question comes back with the 202. It answers 202 with the update, 400 for
// an unreadable body, a missing intent or target, or an after that is not
// a non-negative integer, 404 or 410 for a session that is not live, 409
// while the session is busy, 413 for a body over maxSubmitBytes, 429 when
// the queue is full, and 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	after, ok := parseAfter(w, r)
	if !ok {
		return
	}
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	body, ok := readBody(w, r, maxSubmitBytes)
	if !ok {
		return
	}
	var req SubmitRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}
	if req.Intent == "" || req.Target == "" {
		writeError(w, http.StatusBadRequest, "intent and target are required", 0)
		return
	}
	oracle := newAsyncOracle(s.baseCtx, s.opts.QuestionTimeout)
	u, err := sn.beginUpdate(s.baseCtx, oracle, req.Intent, req.Target)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error(), 0)
		return
	}
	// A W3C traceparent from the caller (a clarify -remote invocation's, or
	// the one clarify-lb mints or forwards) names this update's trace: the
	// pipeline adopts the trace ID and parents under the caller's span.
	// The write is safe: the job has not been submitted yet.
	if tp, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); ok {
		u.parent = tp
	}
	// reject fails the update and releases the session: for a refused
	// submit here, and from the pool for a job still queued at the
	// shutdown drain deadline.
	reject := func(err error) { sn.endUpdate(u, nil, fmt.Errorf("rejected: %w", err)) }
	err = s.pool.Submit(func() { s.runUpdate(sn, u, nil) }, func() { reject(errPoolClosed) })
	if err == errQueueFull {
		reject(err)
		w.Header().Set("Retry-After", "1")
		wire.WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:             "submission shed: " + err.Error(),
			RetryAfterSeconds: 1,
			Reason:            "queue_full",
		})
		return
	}
	if err != nil { // the submit raced Shutdown
		reject(err)
		writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, s.awaitView(r, u, after))
}

// runUpdate executes one reserved update end to end: start the deadline
// budget, bind the oracle, run the pipeline, publish the outcome, release
// the session, and count a failure. It serves both fresh submissions (as the
// pool job) and rehydrated pending updates (on a restore goroutine). script
// is a restored update's delivered answers: the pipeline replays them
// through a disambig.Transcript before the update's live oracle takes over.
// Fresh updates pass nil and talk to the live oracle directly.
func (s *Server) runUpdate(sn *session, u *update, script []disambig.Answer) {
	s.active.Add(1)
	defer s.active.Add(-1)
	// A panicking pipeline must fail its own update and release the
	// session; otherwise the session stays busy forever and its update
	// never turns terminal. The pool has a last-resort recover too, but by
	// then the update record is unreachable.
	defer func() {
		if v := recover(); v != nil {
			s.met.recordPanic()
			s.met.recordFailedUpdate()
			sn.endUpdate(u, nil, fmt.Errorf("internal: update panicked: %v", v))
		}
	}()
	oracle := u.setRunning()
	// The deadline budget starts when a worker picks the job up, not
	// while it sits in the queue — queue time is backpressure, not work.
	uctx := u.ctx
	cancel := func() {}
	if s.opts.UpdateTimeout > 0 {
		uctx, cancel = context.WithTimeout(u.ctx, s.opts.UpdateTimeout)
	}
	defer cancel()
	oracle.bind(uctx)
	uctx, flags := resilience.WithFlags(uctx)
	if u.parent.Valid() {
		uctx = obs.ContextWithTraceParent(uctx, u.parent)
	}
	cs := sn.sess
	cs.RouteOracle, cs.ACLOracle = oracle, oracle
	if len(script) > 0 {
		tr := &disambig.Transcript{Script: script, Route: oracle, ACL: oracle}
		cs.RouteOracle, cs.ACLOracle = tr, tr
	}
	// Per-update sink: marks a degraded run on the root span, stamps the
	// trace ID onto the update record, feeds the per-stage histograms, and
	// retains the trace for /debug/traces.
	// Updates are serialized per session, so reassigning the observer
	// here is as safe as the oracle assignment above.
	cs.Observer = obs.SinkFunc(func(t *obs.Trace) {
		if flags.Degraded() {
			t.Root.SetBool("degraded", true)
		}
		u.setTrace(t.ID)
		s.met.observeTrace(t)
		s.traces.Add(t)
	})
	res, rerr := cs.Submit(uctx, u.intent, u.target)
	if rerr != nil && uctx.Err() == context.DeadlineExceeded && s.baseCtx.Err() == nil {
		s.met.recordUpdateTimeout()
		rerr = fmt.Errorf("update exceeded its %s budget: %w", s.opts.UpdateTimeout, rerr)
	}
	if rerr == nil {
		sn.setConfig(res.Config)
	}
	// Fold the pipeline's information-gain ledger (if the update reached
	// disambiguation) into the ambiguity rollup.
	if rerr == nil {
		_, _, _, led := res.Placement()
		s.amb.record(led)
	}
	// A failure is counted before the update turns terminal, so a client
	// that sees it fail finds it in /metrics.
	if rerr != nil {
		s.met.recordFailedUpdate()
	}
	u.setDegraded(flags.Degraded())
	sn.endUpdate(u, res, rerr)
}

// longPollWait bounds how long a reply waits on an update (a long-poll, a
// submit with ?after, an answer): well under clarify-lb's 10 s drain
// budget, which waits out proxied requests, and Client's 30 s default
// timeout.
const longPollWait = 5 * time.Second

// parseAfter reads the ?after=N of a request that may wait on an update: -1
// when absent. A value that is not a non-negative integer is answered with
// 400 and reported as not ok.
func parseAfter(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query()
	if !q.Has("after") {
		return -1, true
	}
	n, err := strconv.Atoi(q.Get("after"))
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "after must be a non-negative integer", 0)
		return 0, false
	}
	return n, true
}

// awaitView is u's view for a request that may wait: with after < 0 the
// current view at once, otherwise the view once u is terminal or holds a
// question whose seq exceeds after, for at most longPollWait. It returns
// at once while the server drains, so a handoff's listener close never
// waits on a reply and no reply outlives it to see the local copy
// force-cancelled.
func (s *Server) awaitView(r *http.Request, u *update, after int) UpdateInfo {
	if after < 0 {
		return u.info()
	}
	return u.await(r.Context(), after, s.drain, longPollWait)
}

// handleGetUpdate serves an update's poll view, with the pending question
// inline while the update is waiting. With ?after=N it long-polls (see
// awaitView). It answers 200 with the view, 400 for an after that is not a
// non-negative integer, 404 for an unknown session or update, and 410 for a
// session that is gone.
func (s *Server) handleGetUpdate(w http.ResponseWriter, r *http.Request) {
	after, ok := parseAfter(w, r)
	if !ok {
		return
	}
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	u := sn.getUpdate(r.PathValue("uid"))
	if u == nil {
		writeError(w, http.StatusNotFound, "no such update", 0)
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.awaitView(r, u, after))
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp := QuestionResponse{}
	if _, oracle := sn.inFlight(); oracle != nil {
		if q := oracle.Pending(); q != nil {
			resp.Pending = true
			resp.Question = q
		}
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleAnswer delivers an OPTION 1/2 answer to the session's pending
// question and replies with the update's next view: the long-poll's with
// after set to the answered seq, so the next question or the finished
// update comes back with the 200. It answers 200 once delivered, 400 for an
// unreadable body or an option other than 1 or 2, 404 or 410 for a session
// that is not live, 409 when no question is pending or seq is not the
// pending one's, and 413 for a body over maxAnswerBytes.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	body, ok := readBody(w, r, maxAnswerBytes)
	if !ok {
		return
	}
	var req AnswerRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}
	u, oracle := sn.inFlight()
	if oracle == nil {
		writeError(w, http.StatusConflict, "no update awaiting an answer", 0)
		return
	}
	if err := oracle.Answer(req.Seq, req.Option); err != nil {
		code := http.StatusConflict
		if req.Option != 1 && req.Option != 2 {
			code = http.StatusBadRequest
		}
		writeError(w, code, err.Error(), 0)
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.awaitView(r, u, req.Seq))
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	text := sn.configText()
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(text)))
	io.WriteString(w, text)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	wire.WriteJSON(w, http.StatusOK, StatsResponse{Stats: sn.sess.Stats()})
}

// Request body bounds; a longer body is answered 413.
const (
	maxSubmitBytes = 1 << 20
	maxAnswerBytes = 1 << 16
)

// readBody reads r's body whole, of at most limit bytes. A longer body,
// declared or chunked, is answered 413 with an ErrorResponse naming the
// bound; one that fails to arrive is answered 400. ok is false when
// readBody has answered.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := wire.ReadBody(r.Body, r.ContentLength, limit)
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	var tooLarge *wire.TooLargeError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "read body: "+err.Error(), 0)
	return nil, false
}

// --- response helpers ---

func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	wire.WriteJSON(w, status, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// writeGone answers for a session that existed but died, tagging why so a
// balancer drops its stale affinity pin instead of retrying the dead ID.
func writeGone(w http.ResponseWriter, id, reason string) {
	wire.WriteJSON(w, http.StatusGone, ErrorResponse{
		Error:  fmt.Sprintf("session %s is gone (%s)", id, reason),
		Reason: reason,
	})
}
