// Command clarify-lb fronts a fleet of clarifyd replicas with
// session-affinity load balancing, lifting the single-daemon scale ceiling
// while keeping the disambiguation protocol's statefulness intact: a parked
// OPTION 1/2 question is only answerable on the replica that asked it.
//
// Usage:
//
//	clarify-lb -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080 [flags]
//
// Routing (see the lb package):
//
//   - POST /v1/sessions places the session on one backend — two uniform
//     draws, power-of-two-choices on probed load (queue depth, then active
//     sessions) — and pins the returned session ID to it.
//   - /v1/sessions/{id}/... follows the pin, so updates, question polls, and
//     answers land on the replica holding the session; an ID with no pin is
//     looked up by asking each admitted backend for it, and the one that
//     holds it is pinned.
//   - GET /v1/sessions merges the listing across admitted backends.
//   - GET /healthz and /metrics (?format=prometheus) are the balancer's own.
//
// A background prober GETs each backend's /readyz: -eject-after consecutive
// failures take a backend out of rotation, -readmit-after consecutive
// successes restore it, and a backend reporting "draining" keeps serving its
// pinned sessions but receives no new ones. The balancer forwards and
// records nothing per request: every response carries X-Clarify-Backend
// (the serving replica, whose /debug/traces holds the update's trace) and
// X-Request-Id. A client's valid traceparent reaches the replica untouched;
// otherwise the balancer mints one, and its trace ID is the X-Request-Id
// when the client sent none — so one identifier names the request in the
// -access-log line and the update on the replica.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/clarifynet/clarify/lb"
)

// lbConfig carries the parsed flags into run.
type lbConfig struct {
	addr         string
	backends     []string
	opts         lb.Options
	drainTimeout time.Duration
	logFormat    string
	quiet        bool
	accessLog    bool
}

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backendsSpec  = flag.String("backends", "", "comma-separated clarifyd replica URLs (required)")
		probeInterval = flag.Duration("probe-interval", lb.DefaultProbeInterval, "health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", lb.DefaultProbeTimeout, "per-probe timeout")
		ejectAfter    = flag.Int("eject-after", lb.DefaultEjectAfter, "consecutive probe failures that eject a backend")
		readmitAfter  = flag.Int("readmit-after", lb.DefaultReadmitAfter, "consecutive probe successes that re-admit a backend")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight proxied requests")
		accessLog     = flag.Bool("access-log", false, "log one structured line per proxied request (request and trace IDs, backend, placement, status, duration)")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		quiet         = flag.Bool("quiet", false, "disable state-transition logging")
	)
	flag.Parse()
	var backends []string
	for _, b := range strings.Split(*backendsSpec, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	cfg := lbConfig{
		addr:     *addr,
		backends: backends,
		opts: lb.Options{
			Backends:      backends,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			EjectAfter:    *ejectAfter,
			ReadmitAfter:  *readmitAfter,
		},
		drainTimeout: *drainTimeout,
		logFormat:    *logFormat,
		quiet:        *quiet,
		accessLog:    *accessLog,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "clarify-lb:", err)
		os.Exit(1)
	}
}

func run(cfg lbConfig) error {
	var handler slog.Handler
	switch cfg.logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", cfg.logFormat)
	}
	logger := slog.New(handler)

	if len(cfg.backends) == 0 {
		return fmt.Errorf("-backends is required (comma-separated clarifyd URLs)")
	}
	if !cfg.quiet {
		cfg.opts.Logger = slog.NewLogLogger(handler, slog.LevelInfo)
	}
	if cfg.accessLog {
		cfg.opts.AccessLog = logger
	}
	balancer, err := lb.New(cfg.opts)
	if err != nil {
		return err
	}
	defer balancer.Close()

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           balancer,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr, "backends", len(cfg.backends),
			"probe-interval", cfg.opts.ProbeInterval.String(), "eject-after", cfg.opts.EjectAfter)
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
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete; in-flight requests cancelled", "err", err)
	} else {
		logger.Info("drained cleanly")
	}
	return nil
}
