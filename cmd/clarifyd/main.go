// Command clarifyd serves the Clarify pipeline (Figure 1 of the paper) as a
// concurrent JSON HTTP API: many sessions, each owning one configuration,
// with intent submissions scheduled on a bounded worker pool and
// disambiguation questions answered asynchronously over HTTP.
//
// Usage:
//
//	clarifyd [-addr :8080] [-workers 8] [-queue 32] [-llm sim|http] [flags]
//
// Endpoints (see the server package for the wire types):
//
//	POST   /v1/sessions                     create a session from a config
//	                                        (body up to 4 MiB)
//	GET    /v1/sessions                     list sessions
//	GET    /v1/sessions/{id}                session info
//	DELETE /v1/sessions/{id}                delete a session
//	PUT    /v1/sessions/{id}/restore        rehydrate a session snapshot
//	                                        (body up to 9 MiB)
//	POST   /v1/sessions/{id}/updates        submit an intent; the reply is the
//	                                        update's view, with ?after=N the
//	                                        update GET's ?after=N view (body
//	                                        up to 1 MiB)
//	GET    /v1/sessions/{id}/updates/{uid}  poll an update, its pending
//	                                        question inline (?after=N waits
//	                                        up to 5s for a terminal status or
//	                                        a question with seq > N)
//	GET    /v1/sessions/{id}/question       pending disambiguation question
//	POST   /v1/sessions/{id}/answer         answer it (OPTION 1 or 2); the
//	                                        reply is the update GET's view
//	                                        with after set to the answered
//	                                        seq (body up to 64 KiB)
//	GET    /v1/sessions/{id}/config         current configuration text
//	GET    /v1/sessions/{id}/stats          per-session pipeline counters
//	GET    /healthz                         liveness (503 only while draining;
//	                                        200 "degraded" on the fallback LLM)
//	GET    /readyz                          readiness (503 while draining or
//	                                        when no LLM backend can serve)
//	GET    /metrics                         JSON metrics, the disambiguation
//	                                        telemetry as its ambiguity block
//	                                        (?format=prometheus for the 0.0.4
//	                                        text exposition)
//	GET    /debug/traces                    the 256 most recent pipeline traces
//	GET    /debug/traces/{id}               one trace's full span tree
//	GET    /debug/pprof/...                 Go profiler (with -pprof)
//
// A request body over its endpoint's bound is refused with 413 and an error
// naming the bound. Every JSON reply is compact and carries Content-Length.
//
// Logs are structured (log/slog), text by default; -log-format json switches
// to JSON lines for machine ingestion.
//
// With -llm sim (the default) every session uses its own deterministic
// simulated LLM. With -llm http, sessions share one resilience.Stack, the
// one clarify builds too: the OpenAI-compatible endpoint named by
// -base-url/-model and $CLARIFY_API_KEY, each completion retried on 429,
// 5xx and transport errors, behind a circuit breaker whose transitions are
// logged, and — with -fallback-sim — a degraded-mode fallback onto the
// simulated LLM, so a down endpoint stops hurting updates instead of
// failing them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/server"
	"github.com/clarifynet/clarify/snapshot"
)

// daemonConfig collects every flag so run() stays testable and the flag list
// can grow without threading another positional parameter through.
type daemonConfig struct {
	addr            string
	workers         int
	queue           int
	maxSessions     int
	idleTTL         time.Duration
	questionTimeout time.Duration
	updateTimeout   time.Duration
	drainTimeout    time.Duration

	llmKind     string
	baseURL     string
	model       string
	fallbackSim bool

	logFormat string
	pprofOn   bool
	quiet     bool

	journalDir      string
	journalMaxBytes int64
	journalSegments int
	journalFsync    string

	snapshotDir string
	handoffPeer string
	pidFile     string
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 8, "pipeline worker count")
	flag.IntVar(&cfg.queue, "queue", 0, "submission queue bound (default 2×workers)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 1024, "live session cap")
	flag.DurationVar(&cfg.idleTTL, "idle-ttl", 30*time.Minute, "evict sessions idle this long")
	flag.DurationVar(&cfg.questionTimeout, "question-timeout", time.Minute, "abort updates whose question goes unanswered this long")
	flag.DurationVar(&cfg.updateTimeout, "update-timeout", server.DefaultUpdateTimeout, "per-update wall-clock budget once a worker picks it up (negative disables)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight updates")
	flag.StringVar(&cfg.llmKind, "llm", "sim", "LLM backend: sim or http")
	flag.StringVar(&cfg.baseURL, "base-url", "https://api.openai.com/v1", "OpenAI-compatible API root (http backend)")
	flag.StringVar(&cfg.model, "model", "gpt-4", "model identifier (http backend)")
	flag.BoolVar(&cfg.fallbackSim, "fallback-sim", false, "serve completions from the simulated LLM when the http backend fails (degraded mode)")
	flag.StringVar(&cfg.journalDir, "journal", "", "flight-recorder directory: append one durable record per update (replayable with clarify-replay)")
	flag.Int64Var(&cfg.journalMaxBytes, "journal-max-bytes", 0, "rotate journal segments over this size (default 8 MiB)")
	flag.IntVar(&cfg.journalSegments, "journal-segments", 0, "prune journal segments beyond this count (0 keeps all)")
	flag.StringVar(&cfg.journalFsync, "journal-fsync", "interval", "journal durability policy: never, interval, or always")
	flag.StringVar(&cfg.snapshotDir, "snapshot-dir", "", "session snapshot directory: rehydrate sessions from it at startup, write surviving sessions to it on SIGTERM")
	flag.StringVar(&cfg.handoffPeer, "handoff-peer", "", "hand sessions off to this base URL on SIGTERM (a peer replica or a clarify-lb front) before falling back to -snapshot-dir")
	flag.StringVar(&cfg.pidFile, "pidfile", "", "write the daemon pid here on startup (rolling-restart supervisors read it)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "expose the Go profiler at /debug/pprof/")
	flag.BoolVar(&cfg.quiet, "quiet", false, "disable request logging")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "clarifyd:", err)
		os.Exit(1)
	}
}

// newLogger builds the process-wide structured logger.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func run(cfg daemonConfig) error {
	logger, err := newLogger(cfg.logFormat)
	if err != nil {
		return err
	}
	// -llm sim leaves client nil, so each session gets a SimLLM of its own.
	var client llm.Client
	switch cfg.llmKind {
	case "sim":
		if cfg.fallbackSim {
			return fmt.Errorf("-fallback-sim requires -llm http")
		}
	case "http":
		var fallback llm.Client
		if cfg.fallbackSim {
			fallback = llm.NewSimLLM()
		}
		client = resilience.NewHTTPStack(cfg.baseURL, cfg.model, os.Getenv("CLARIFY_API_KEY"), fallback,
			func(from, to resilience.State) {
				logger.Warn("llm circuit breaker transition", "from", from.String(), "to", to.String())
			})
	default:
		return fmt.Errorf("unknown -llm backend %q", cfg.llmKind)
	}

	var jnl *journal.Journal
	if cfg.journalDir != "" {
		jnl, err = journal.Open(journal.Options{
			Dir:             cfg.journalDir,
			MaxSegmentBytes: cfg.journalMaxBytes,
			MaxSegments:     cfg.journalSegments,
			Fsync:           journal.FsyncPolicy(cfg.journalFsync),
		})
		if err != nil {
			return err
		}
		defer jnl.Close()
		logger.Info("flight recorder active", "dir", cfg.journalDir, "fsync", cfg.journalFsync)
	}

	opts := server.Options{
		Workers:         cfg.workers,
		QueueSize:       cfg.queue,
		MaxSessions:     cfg.maxSessions,
		IdleTTL:         cfg.idleTTL,
		QuestionTimeout: cfg.questionTimeout,
		UpdateTimeout:   cfg.updateTimeout,
		LLM:             client,
		Journal:         jnl,
	}
	if !cfg.quiet {
		// The server's per-request log line flows through the structured
		// logger at info level.
		opts.Logger = slog.NewLogLogger(logger.Handler(), slog.LevelInfo)
	}
	srv := server.New(opts)

	handler := http.Handler(srv)
	if cfg.pprofOn {
		// Mount the profiler next to the API. The API mux never registers
		// /debug/pprof/, so the wrapper only diverts profiler traffic.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}

	node, _ := os.Hostname()
	if node == "" {
		node = "clarifyd"
	}
	node += cfg.addr

	if cfg.pidFile != "" {
		if err := os.WriteFile(cfg.pidFile, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
			return fmt.Errorf("-pidfile: %w", err)
		}
		defer os.Remove(cfg.pidFile)
	}

	// Rehydrate before the listener opens: sessions a previous process left
	// in the snapshot directory come back under their original IDs, parked
	// questions re-parking as their updates re-execute.
	if cfg.snapshotDir != "" {
		restoreFromDir(srv, cfg.snapshotDir, logger)
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr, "workers", cfg.workers,
			"llm", cfg.llmKind, "fallback-sim", cfg.fallbackSim, "pprof", cfg.pprofOn)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "budget", cfg.drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()

	if cfg.snapshotDir != "" || cfg.handoffPeer != "" {
		// Handoff mode: quiesce running updates to parked questions, capture
		// every session, and ship the captures to a peer (or disk). Local
		// copies of the parked updates are then force-cancelled quickly — the
		// handed-off copies are the live ones now.
		handoffSessions(ctx, srv, cfg, node, logger)
		// Close the listener BEFORE force-cancelling the local copies: a
		// client poll must never observe a handed-off update flipping to
		// "failed" here — the copy on the peer is the live one.
		sctx, scancel := context.WithTimeout(context.Background(), time.Second)
		defer scancel()
		if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("http shutdown", "err", err)
		}
		srv.Shutdown(sctx)
		return nil
	}

	// Drain the pipeline BEFORE closing the listener: srv.Shutdown flips
	// /readyz to 503 "draining" (a fronting clarify-lb sees it and stops
	// placing new sessions here) while the listener stays up so parked
	// disambiguation questions can still be answered over HTTP. Only once
	// in-flight updates finish — or the budget force-cancels them — does the
	// listener close.
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete; in-flight updates cancelled", "err", err)
	} else {
		logger.Info("drained cleanly")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	return nil
}

// restoreFromDir rehydrates every readable snapshot file in dir, consuming
// files whose sessions were all offered to the server. Files from a newer
// schema (or plain garbage) are left on disk for a newer build.
func restoreFromDir(srv *server.Server, dir string, logger *slog.Logger) {
	loads, err := snapshot.Load(dir)
	if err != nil {
		logger.Error("snapshot restore: read dir", "dir", dir, "err", err)
		return
	}
	for _, l := range loads {
		if l.Err != nil {
			logger.Warn("snapshot file unreadable; leaving on disk", "path", l.Path, "err", l.Err)
			continue
		}
		restored := 0
		for _, sn := range l.File.Sessions {
			if err := srv.RestoreSession(sn); err != nil {
				logger.Warn("session restore rejected", "session", sn.ID, "err", err)
				continue
			}
			restored++
		}
		logger.Info("snapshot restored", "path", l.Path,
			"sessions", restored, "of", len(l.File.Sessions), "from", l.File.Node)
		if err := snapshot.Consume(l.Path); err != nil {
			logger.Warn("snapshot consume", "path", l.Path, "err", err)
		}
	}
}

// handoffSessions drains to quiescence, captures every session, and hands
// the captures to -handoff-peer (per-session retries; a 409 means the peer
// already holds it). Captures the peer would not take — or all of them,
// with no peer — are written to -snapshot-dir for the next process.
func handoffSessions(ctx context.Context, srv *server.Server, cfg daemonConfig, node string, logger *slog.Logger) {
	if err := srv.DrainForHandoff(ctx); err != nil {
		logger.Warn("handoff drain incomplete; snapshotting anyway", "err", err)
	}
	snaps := srv.SnapshotSessions(node)
	if len(snaps) == 0 {
		logger.Info("handoff: no sessions to move")
		return
	}
	leftover := snaps
	if cfg.handoffPeer != "" {
		c := &server.Client{BaseURL: cfg.handoffPeer}
		leftover = leftover[:0]
		for _, sn := range snaps {
			if err := putRestoreWithRetry(ctx, c, sn); err != nil {
				logger.Warn("handoff rejected; keeping for snapshot file", "session", sn.ID, "err", err)
				leftover = append(leftover, sn)
				continue
			}
			logger.Info("session handed off", "session", sn.ID, "peer", cfg.handoffPeer)
		}
	}
	if len(leftover) == 0 {
		return
	}
	if cfg.snapshotDir == "" {
		logger.Error("sessions LOST: handoff failed and no -snapshot-dir", "count", len(leftover))
		return
	}
	path, err := snapshot.Write(cfg.snapshotDir, &snapshot.File{
		Time:     time.Now(),
		Node:     node,
		Sessions: leftover,
	})
	if err != nil {
		logger.Error("sessions LOST: snapshot write failed", "count", len(leftover), "err", err)
		return
	}
	logger.Info("sessions snapshotted", "path", path, "count", len(leftover))
}

// putRestoreWithRetry PUTs one session snapshot, riding out the window where
// the peer (often a clarify-lb) has not yet noticed this replica draining.
func putRestoreWithRetry(ctx context.Context, c *server.Client, sn *snapshot.Session) error {
	backoff := 250 * time.Millisecond
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var apiErr *server.APIError
		if _, err = c.RestoreSession(ctx, sn); err == nil {
			return nil
		} else if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
			return nil // the peer already holds this session
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
	return err
}
