package lb

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clarifynet/clarify/internal/wire"
	"github.com/clarifynet/clarify/server"
)

// prober actively health-checks every backend: one GET /readyz per backend
// per tick, all backends probed concurrently so a hung replica cannot delay
// the others' verdicts.
//
// Probe classification:
//
//	200/degraded       → success (alive, serving; degraded still serves)
//	503 "draining"     → success, draining: the replica is finishing its
//	                     in-flight sessions; keep routing its pinned session
//	                     traffic, stop placing new sessions on it
//	503 otherwise      → failure (unready: breaker open with no fallback)
//	transport error    → failure (process gone, port closed, timeout)
//
// EjectAfter consecutive failures eject the backend (no traffic at all,
// probes continue); ReadmitAfter consecutive successes re-admit it.
type prober struct {
	lb       *LB
	interval time.Duration
	timeout  time.Duration
	eject    int
	readmit  int

	probes atomic.Int64 // probe rounds completed

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// Prober defaults: a dead replica is out of rotation within
// DefaultEjectAfter × DefaultProbeInterval of dying.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = time.Second
	DefaultEjectAfter    = 3
	DefaultReadmitAfter  = 2
)

func newProber(l *LB, opts Options) *prober {
	interval := opts.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	timeout := opts.ProbeTimeout
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
		if timeout > interval {
			timeout = interval
		}
	}
	eject := opts.EjectAfter
	if eject <= 0 {
		eject = DefaultEjectAfter
	}
	readmit := opts.ReadmitAfter
	if readmit <= 0 {
		readmit = DefaultReadmitAfter
	}
	return &prober{
		lb:       l,
		interval: interval,
		timeout:  timeout,
		eject:    eject,
		readmit:  readmit,
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

func (p *prober) run() {
	defer close(p.doneCh)
	// Probe immediately at start so load payloads are populated before the
	// first create; backends start admitted either way.
	p.probeAll()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.probeAll()
		case <-p.stopCh:
			return
		}
	}
}

func (p *prober) probeAll() {
	var wg sync.WaitGroup
	for _, b := range p.lb.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.probeOne(b)
		}(b)
	}
	wg.Wait()
	p.probes.Add(1)
}

func (p *prober) probeOne(b *Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL.String()+"/readyz", nil)
	if err != nil {
		p.onFailure(b, "build probe: "+err.Error())
		return
	}
	resp, err := p.lb.opts.Transport.RoundTrip(req)
	if err != nil {
		p.onFailure(b, "probe: "+trimReason(err.Error()))
		return
	}
	defer resp.Body.Close()
	var load server.HealthStatus
	body, _ := wire.ReadBody(resp.Body, resp.ContentLength, 1<<16)
	_ = json.Unmarshal(body, &load) // best-effort: old replicas send fewer fields

	switch {
	case resp.StatusCode == http.StatusOK:
		p.onSuccess(b, load)
	case load.Draining || load.Status == "draining":
		// Draining is not a failure: the replica is alive and finishing its
		// in-flight sessions. AcceptsSessions() goes false via the payload.
		load.Draining = true
		p.onSuccess(b, load)
	default:
		p.onFailure(b, trimReason(load.Status+" ("+resp.Status+")"))
	}
}

func (p *prober) onSuccess(b *Backend, load server.HealthStatus) {
	if b.probeSuccess(load, p.readmit) && p.lb.opts.Logger != nil {
		p.lb.opts.Logger.Printf("lb: backend %s re-admitted after %d consecutive successful probes", b.Name, p.readmit)
	}
}

func (p *prober) onFailure(b *Backend, reason string) {
	if b.probeFailure(reason, p.eject) && p.lb.opts.Logger != nil {
		p.lb.opts.Logger.Printf("lb: backend %s ejected after %d consecutive probe failures (%s)", b.Name, p.eject, reason)
	}
}

func (p *prober) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	<-p.doneCh
}

func trimReason(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
