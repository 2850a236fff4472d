package server

import (
	"context"
	"encoding/json"
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
	"github.com/clarifynet/clarify/incident"
	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/slo"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/tenant"
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
	// TraceBufferSize bounds the /debug/traces ring of recent completed
	// traces (default DefaultTraceBufferSize).
	TraceBufferSize int
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
	// LatencyBucketsMs overrides the histogram upper bounds (milliseconds)
	// for both per-endpoint and per-stage latency, so load tests at different
	// scales keep resolution. Must be strictly ascending and positive; empty
	// keeps the default table. New panics on an invalid table — call
	// Options.Validate first when the bounds come from user input.
	LatencyBucketsMs []float64
	// Journal, when non-nil, is the flight recorder every hosted session
	// appends to: one durable record per update (see the journal package).
	// The server does not close it; the owner does, after Shutdown.
	Journal *journal.Journal
	// SLO overrides the rolling objective set evaluated against update
	// outcomes and served at GET /debug/slo; nil selects the defaults
	// (99.9% availability, 99% under 500ms, page/ticket burn-rate windows).
	SLO *slo.Set
	// Exemplars attaches OpenMetrics exemplars (trace IDs) to the per-stage
	// latency histograms, linking /metrics buckets to /debug/traces entries.
	// Off by default: the exemplar-off path is byte-identical to PR 3/5
	// behaviour.
	Exemplars bool
	// TraceKeepSize bounds the tail-retention ring holding evicted traces
	// worth keeping (errors, degraded runs, slower than the update-stage
	// p99). 0 selects DefaultTraceKeepSize; negative disables retention.
	TraceKeepSize int
	// Incidents, when non-nil, is the profile-on-fire recorder: a burn-rate
	// alert transitioning to firing triggers a rate-limited CPU+heap+traces
	// capture, indexed at GET /debug/incidents.
	Incidents *incident.Recorder
	// Tenants is the admission-control registry: per-tenant rate limits,
	// concurrent-update quotas, and fair-queueing weights, keyed by the
	// X-Clarify-Tenant header. Nil builds an open registry (every tenant
	// gets weight 1, unlimited rate and concurrency) — single-tenant
	// deployments see no behaviour change beyond the queue swap.
	Tenants *tenant.Registry
	// Shed tunes the CoDel-style queue-delay shed controller on the bulk
	// dispatch lane. The zero value selects the defaults (200ms target,
	// 2s interval); a negative Target disables overload shedding.
	Shed tenant.ShedConfig
}

// Validate reports whether the options are well-formed; New panics on the
// same conditions. Only fields that can carry user input are checked.
func (o Options) Validate() error {
	for i, b := range o.LatencyBucketsMs {
		if b <= 0 {
			return fmt.Errorf("server: LatencyBucketsMs[%d] = %v: bounds must be positive", i, b)
		}
		if i > 0 && b <= o.LatencyBucketsMs[i-1] {
			return fmt.Errorf("server: LatencyBucketsMs[%d] = %v: bounds must be strictly ascending", i, b)
		}
	}
	return nil
}

// DefaultUpdateTimeout is the per-update deadline when Options.UpdateTimeout
// is zero.
const DefaultUpdateTimeout = 2 * time.Minute

// Server hosts concurrent clarify.Sessions behind a JSON HTTP API. It
// implements http.Handler; wire it into an http.Server (or httptest) and
// call Shutdown to drain.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	pool    *pool
	mgr     *manager
	met     *metrics
	amb     *ambiguityMetrics
	traces  *obs.Ring
	slos    *slo.Set
	spaces  *symbolic.SpaceCache // shared across all hosted sessions
	tenants *tenant.Registry

	// tslos holds each tenant's private SLO rings, cloned lazily from slos
	// so noisy-neighbor protection is judged per tenant.
	tslosMu sync.Mutex
	tslos   map[string]*slo.Set

	// firing tracks which burn-rate alerts were firing at the last SLO
	// observation, so runUpdate can detect quiet→firing transitions and
	// trigger the incident recorder exactly on the edge.
	firingMu sync.Mutex
	firing   map[string]bool

	baseCtx  context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	active   atomic.Int64 // updates executing or parked on a question

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
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	slos := opts.SLO
	if slos == nil {
		// The defaults cannot fail validation.
		slos, _ = slo.New(slo.Config{})
	}
	tenants := opts.Tenants
	if tenants == nil {
		tenants = tenant.NewRegistry(tenant.RegistryConfig{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	met := newMetrics(opts.LatencyBucketsMs)
	met.exemplars = opts.Exemplars
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		pool:    newPool(opts.Workers, opts.QueueSize, opts.Shed, func(interface{}) { met.recordPanic() }),
		mgr:     newManager(opts.MaxSessions, opts.IdleTTL, opts.SweepInterval),
		met:     met,
		amb:     newAmbiguityMetrics(),
		traces:  newTraceRing(opts.TraceBufferSize),
		slos:    slos,
		spaces:  symbolic.NewSpaceCache(),
		tenants: tenants,
		tslos:   map[string]*slo.Set{},
		firing:  map[string]bool{},
		baseCtx: ctx,
		cancel:  cancel,
	}
	if keep := opts.TraceKeepSize; keep >= 0 {
		if keep == 0 {
			keep = DefaultTraceKeepSize
		}
		s.traces.SetRetention(keep, s.keepTrace)
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
	s.route("GET /debug/slo", s.handleDebugSLO)
	s.route("GET /debug/ambiguity", s.handleDebugAmbiguity)
	s.route("GET /debug/incidents", s.handleDebugIncidents)
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

// Shutdown drains the server: new submissions are rejected, queued and
// running updates are given until ctx expires to finish, then any still
// parked on questions are force-cancelled. Always returns after the pool has
// fully stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
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

// --- handlers ---

// health assembles the load signals both probes share; a fronting balancer
// reads them for load-aware create placement and drain detection.
func (s *Server) health() HealthStatus {
	return HealthStatus{
		Draining:       s.draining.Load(),
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
	writeJSON(w, status, body)
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
	writeJSON(w, status, body)
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
	snap.KeptTraces = s.traces.KeptTotal()
	if s.opts.Resilience != nil {
		snap.Resilience = s.opts.Resilience.Stats()
	}
	sloSnap := s.slos.Snapshot()
	snap.SLO = &sloSnap
	qs := s.pool.QueueStats()
	snap.Queue = &qs
	snap.Tenants = s.tenantMetrics()
	if s.opts.Journal != nil {
		js := s.opts.Journal.Stats()
		snap.Journal = &js
	}
	if s.opts.Incidents != nil {
		is := s.opts.Incidents.Stats()
		snap.Incidents = &is
	}
	snap.Ambiguity = s.amb.snapshot()
	snap.Runtime = readRuntimeStats()
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

// handleCreateSession starts a session on the body's configuration. It
// answers 201 with the session ID, 400 for an unreadable body or a bad
// tenant header, 422 for a configuration that does not parse, and 503 while
// draining or at the session cap.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxConfigBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error(), 0)
		return
	}
	var req CreateSessionRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}
	tenantName, ok := tenantFromRequest(r)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad "+tenant.HeaderTenant+" header: want 1-64 chars of [A-Za-z0-9._-]", 0)
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
	sn.setTenant(s.tenants.Get(tenantName).Name())
	sn.setConfigText(cfg.Print())
	writeJSON(w, http.StatusCreated, CreateSessionResponse{ID: sn.id})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.List()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sn := range sessions {
		out = append(out, sn.info())
	}
	writeJSON(w, http.StatusOK, out)
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
	writeJSON(w, http.StatusOK, sn.info())
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

// handleSubmit is the hot path: run the tenant admission gates (token
// bucket, concurrent-update quota), reserve the session, enqueue the
// pipeline on the worker pool's fair queue — shedding with 429 +
// Retry-After when a gate denies, the queue is full, or the overload
// controller is tripped — and either wait for completion (sync) or return
// the update ID (async). It answers 200 (sync) or 202 (async) with the
// update, 400 for an unreadable body or a missing intent or target, 404 or
// 410 for a session that is not live, 409 while the session is busy, 429
// when shed, and 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error(), 0)
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
	async := req.Async || r.URL.Query().Get("async") == "1"

	// Tenant gates run before the session is reserved: a quota bounce must
	// not allocate an update record, or a flooding tenant would grow its
	// sessions' update history without doing any work.
	tn := s.tenantFor(sn)
	if !s.admitSubmit(w, tn) {
		return
	}
	oracle := newAsyncOracle(s.baseCtx, s.opts.QuestionTimeout)
	u, err := sn.beginUpdate(s.baseCtx, oracle, req.Intent, req.Target)
	if err != nil {
		tn.Release()
		writeError(w, http.StatusConflict, err.Error(), 0)
		return
	}
	// A W3C traceparent from the caller (clarify-lb's forward span, or a
	// clarify -remote invocation) makes this update part of a fleet trace:
	// the pipeline adopts the trace ID and parents under the caller's span.
	// The write is safe: the job has not been submitted yet.
	if tp, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); ok {
		u.parent = tp
	}
	// Sessions engaged in the disambiguation Q&A ride the strict-priority
	// interactive lane, so an operator mid-dialogue is never queued behind
	// a bulk flood; the header requests it for a dialogue's first submit.
	lane := tenant.Bulk
	if sn.interactive() || r.Header.Get(HeaderPriority) == "interactive" {
		lane = tenant.Interactive
	}
	job := func() { s.runUpdate(sn, u, tn, nil) }
	// drop runs only if the job is purged at the shutdown drain deadline:
	// it fails the update and returns the session and quota slot.
	drop := func(reason tenant.Reason) {
		sn.endUpdate(u, nil, fmt.Errorf("rejected: %s", shedMessage(reason)))
		tn.Release()
	}
	if reason := s.pool.Submit(tn.Name(), tn.Weight(), lane, job, drop); reason != "" {
		tn.RecordShed(reason)
		drop(reason)
		writeShed(w, reason, time.Second)
		return
	}
	if async {
		writeJSON(w, http.StatusAccepted, u.info())
		return
	}
	select {
	case <-u.done:
	case <-r.Context().Done():
		// The client went away; the update keeps running and remains
		// pollable at its update ID.
	}
	writeJSON(w, http.StatusOK, u.info())
}

// runUpdate executes one reserved update end to end: start the deadline
// budget, bind the oracle, run the pipeline, publish the outcome, release
// the session and the tenant's in-flight slot, and feed the fleet and
// per-tenant SLOs. It serves both fresh submissions (as the pool job) and
// rehydrated pending updates (on a restore goroutine); both paths hold an
// in-flight slot on tn when they get here. script is a restored update's
// delivered answers: the pipeline replays them through a disambig.Transcript
// before the update's live oracle takes over. Fresh updates pass nil and
// talk to the live oracle directly.
func (s *Server) runUpdate(sn *session, u *update, tn *tenant.Tenant, script []disambig.Answer) {
	s.active.Add(1)
	defer s.active.Add(-1)
	defer tn.Release()
	// A panicking pipeline must fail its own update and release the
	// session; otherwise the session stays busy forever and sync
	// submitters hang. The pool has a last-resort recover too, but by
	// then the update record is unreachable.
	defer func() {
		if v := recover(); v != nil {
			s.met.recordPanic()
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
	// Per-update sink: stamps the trace ID onto the update record, feeds
	// the per-stage histograms, and retains the trace for /debug/traces.
	// The degraded flag lands on the root span here so the tail-retention
	// policy and the fleet view see it without consulting the update record.
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
	start := time.Now()
	res, rerr := cs.Submit(uctx, u.intent, u.target)
	elapsed := time.Since(start)
	if rerr != nil && uctx.Err() == context.DeadlineExceeded && s.baseCtx.Err() == nil {
		s.met.recordUpdateTimeout()
		rerr = fmt.Errorf("update exceeded its %s budget: %w", s.opts.UpdateTimeout, rerr)
	}
	if rerr == nil {
		sn.setConfigText(res.Config.Print())
	}
	// Fold the pipeline's information-gain ledger (if the update reached
	// disambiguation) into the fleet and per-tenant ambiguity rollups.
	if rerr == nil {
		_, _, _, led := res.Placement()
		s.amb.record(tn.Name(), led)
	}
	u.setDegraded(flags.Degraded())
	// A session whose pipeline asked at least one disambiguation question
	// is in a dialogue: its follow-up submits ride the interactive lane.
	// Both this and the release come before the update turns terminal, so
	// a follow-up submitted the moment it reads terminal is neither
	// refused as busy nor queued on the bulk lane.
	if oracle.asked() {
		sn.markInteractive()
	}
	sn.endUpdate(u, res, rerr)
	// Every terminal update outcome feeds the rolling objectives — fleet
	// and per-tenant: the elapsed time covers the whole pipeline including
	// question-wait, the same latency the client experienced.
	failed := rerr != nil
	tn.RecordOutcome(failed)
	s.slos.Observe(elapsed, failed)
	s.tenantSLO(tn.Name()).Observe(elapsed, failed)
	s.checkIncidents()
}

// keepTrace is the tail-retention policy: a trace evicted from the debug
// ring survives when it recorded an error, ran degraded, or was slower than
// the current update-stage p99 estimate (once enough updates have been
// observed for the estimate to mean something).
func (s *Server) keepTrace(t *obs.Trace) bool {
	if t.Root == nil {
		return false
	}
	if _, ok := t.Root.Attr("error"); ok {
		return true
	}
	if a, ok := t.Root.Attr("degraded"); ok && a.Bool {
		return true
	}
	p99, n := s.met.stageQuantile("update", 0.99)
	if n < minQuantileObservations || p99 <= 0 {
		return false
	}
	return float64(t.Duration())/float64(time.Millisecond) >= p99
}

// minQuantileObservations is how many update observations the stage
// histogram needs before the p99 estimate drives tail retention.
const minQuantileObservations = 20

// checkIncidents runs profile-on-fire: after each SLO observation, compare
// the firing alert set against the previous one and hand any quiet→firing
// transition to the incident recorder (which rate-limits actual captures).
// The capture runs on its own goroutine — it sleeps through a bounded CPU
// profile — so the worker that completed the update is not held.
func (s *Server) checkIncidents() {
	if s.opts.Incidents == nil {
		return
	}
	snap := s.slos.Snapshot()
	var newlyFiring []string
	s.firingMu.Lock()
	for _, o := range snap.Objectives {
		for _, ws := range o.Windows {
			name := o.Objective.Name + "/" + ws.Severity
			if ws.Firing && !s.firing[name] {
				newlyFiring = append(newlyFiring, name)
			}
			s.firing[name] = ws.Firing
		}
	}
	s.firingMu.Unlock()
	if len(newlyFiring) == 0 {
		return
	}
	// Evidence bundle: the retained tail (errors, outliers) first — those
	// are the traces that explain a burn — then recent traffic for context.
	traces := append(s.traces.Kept(), s.traces.List()...)
	go s.opts.Incidents.Capture(newlyFiring, traces)
}

// handleDebugIncidents serves the incident capture index, newest first.
func (s *Server) handleDebugIncidents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Incidents == nil {
		writeJSON(w, http.StatusOK, []incident.Capture{})
		return
	}
	list := s.opts.Incidents.List()
	if list == nil {
		list = []incident.Capture{}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetUpdate(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	u := sn.getUpdate(r.PathValue("uid"))
	if u == nil {
		writeError(w, http.StatusNotFound, "no such update", 0)
		return
	}
	writeJSON(w, http.StatusOK, u.info())
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp := QuestionResponse{}
	if oracle := sn.pendingOracle(); oracle != nil {
		if q := oracle.Pending(); q != nil {
			resp.Pending = true
			resp.Question = q
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAnswer delivers an OPTION 1/2 answer to the session's pending
// question. It answers 200 once delivered, 400 for an unreadable body or an
// option other than 1 or 2, 404 or 410 for a session that is not live, and
// 409 when no question is pending or seq is not the pending one's.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error(), 0)
		return
	}
	var req AnswerRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}
	oracle := sn.pendingOracle()
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
	writeJSON(w, http.StatusOK, map[string]string{"status": "answered"})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, sn.configText())
}

// handleDebugSLO serves the rolling objective state: per-objective budget
// remaining and every burn-rate window's evaluation. ?tenant=NAME selects
// that tenant's private rings instead of the fleet's.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("tenant"); name != "" {
		snap, ok := s.tenantSLOSnapshot(name)
		if !ok {
			writeError(w, http.StatusNotFound, "no SLO state for tenant "+name, 0)
			return
		}
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeJSON(w, http.StatusOK, s.slos.Snapshot())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{Stats: sn.sess.Stats()})
}

// --- response helpers ---

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
	writeJSON(w, status, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// writeGone answers for a session that existed but died, tagging why so a
// balancer drops its stale affinity pin instead of retrying the dead ID.
func writeGone(w http.ResponseWriter, id, reason string) {
	writeJSON(w, http.StatusGone, ErrorResponse{
		Error:  fmt.Sprintf("session %s is gone (%s)", id, reason),
		Reason: reason,
	})
}
