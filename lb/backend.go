package lb

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/clarifynet/clarify/server"
)

// Backend state machine (driven by the prober):
//
//	admitted ──(EjectAfter consecutive probe failures)──▶ ejected
//	ejected ──(ReadmitAfter consecutive probe successes)──▶ admitted
//
// Orthogonally, a backend whose probe payload reports draining keeps serving
// its pinned sessions (so parked Q&A can finish) but stops receiving new
// session creates; when the drained process finally exits, its probes fail
// and it is ejected like any dead backend.
const (
	StateAdmitted = "admitted"
	StateEjected  = "ejected"
)

// Backend is one clarifyd replica behind the balancer.
type Backend struct {
	// Name labels the backend in headers, metrics, and logs (host:port).
	Name string
	// URL is the replica root, e.g. http://127.0.0.1:8080.
	URL *url.URL

	mu       sync.Mutex
	ejected  bool
	draining bool
	fails    int // consecutive probe failures while admitted
	oks      int // consecutive probe successes while ejected
	load     server.HealthStatus
	probedAt time.Time
	lastErr  string

	// Serving counters.
	requests   int64
	errors5xx  int64
	transport  int64
	sheds      int64 // 429 shed responses proxied from this backend
	creates    int64
	ejections  int64
	readmits   int64
	latency    *server.Histogram
	probeTotal int64
	probeFails int64
}

// newBackend parses one replica URL into a Backend. Backends start admitted:
// an optimistic start avoids a probe-interval blackout at LB boot, and a
// genuinely dead replica is ejected within EjectAfter probes.
func newBackend(raw string) (*Backend, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("lb: backend %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("lb: backend %q: want an http(s) URL", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("lb: backend %q: missing host", raw)
	}
	return &Backend{Name: u.Host, URL: u, latency: server.NewHistogram(server.DefaultLatencyBucketsMs())}, nil
}

// Admitted reports whether the backend is in rotation (possibly draining).
func (b *Backend) Admitted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.ejected
}

// AcceptsSessions reports whether new session creates may be placed here:
// admitted and not draining.
func (b *Backend) AcceptsSessions() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.ejected && !b.draining
}

// Load returns the last probe's health payload (zero before the first probe).
func (b *Backend) Load() server.HealthStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load
}

// loadScore orders backends for load-aware placement: queued work first
// (it directly delays a new session's updates), then live sessions.
func (b *Backend) loadScore() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load.QueueDepth, b.load.ActiveSessions
}

// lessLoaded reports whether b carries strictly less load than o.
func (b *Backend) lessLoaded(o *Backend) bool {
	bq, bs := b.loadScore()
	oq, os := o.loadScore()
	if bq != oq {
		return bq < oq
	}
	return bs < os
}

// recordRequest folds one proxied request into the backend's counters.
// transportErr marks a failure to reach the backend at all.
func (b *Backend) recordRequest(status int, d time.Duration, transportErr bool) {
	b.recordRequestTrace(status, d, transportErr, "")
}

// recordRequestTrace is recordRequest plus an exemplar: when traceID is
// non-empty, the observation is recorded as the latency bucket's last
// exemplar for the OpenMetrics exposition.
func (b *Backend) recordRequestTrace(status int, d time.Duration, transportErr bool, traceID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.requests++
	switch {
	case transportErr:
		b.transport++
	case status >= 500:
		b.errors5xx++
	case status == http.StatusTooManyRequests:
		// The replica shed the request (quota, queue, or overload); count
		// it here so overload is visible at the balancer per backend.
		b.sheds++
	}
	b.latency.Observe(d, traceID, float64(time.Now().UnixMilli())/1000)
}

func (b *Backend) recordCreate() {
	b.mu.Lock()
	b.creates++
	b.mu.Unlock()
}

// probeSuccess records one live probe: consecutive-failure state resets, and
// an ejected backend is re-admitted after `readmitAfter` consecutive
// successes. It returns true when this probe re-admitted the backend.
func (b *Backend) probeSuccess(load server.HealthStatus, readmitAfter int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeTotal++
	b.probedAt = time.Now()
	b.load = load
	b.draining = load.Draining
	b.lastErr = ""
	b.fails = 0
	if !b.ejected {
		return false
	}
	b.oks++
	if b.oks < readmitAfter {
		return false
	}
	b.ejected = false
	b.oks = 0
	b.readmits++
	return true
}

// probeFailure records one failed probe and ejects the backend after
// `ejectAfter` consecutive failures. It returns true when this probe ejected
// the backend.
func (b *Backend) probeFailure(reason string, ejectAfter int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeTotal++
	b.probeFails++
	b.probedAt = time.Now()
	b.lastErr = reason
	b.oks = 0
	if b.ejected {
		return false
	}
	b.fails++
	if b.fails < ejectAfter {
		return false
	}
	b.ejected = true
	b.fails = 0
	b.ejections++
	return true
}

// BackendSnapshot is the wire view of one backend's state and counters.
type BackendSnapshot struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Draining bool   `json:"draining"`
	// Requests counts proxied requests; Errors5xx those answered >= 500 by
	// the backend, TransportErrors those that never reached it.
	Requests        int64 `json:"requests"`
	Errors5xx       int64 `json:"errors5xx"`
	TransportErrors int64 `json:"transportErrors"`
	// Sheds counts 429 responses proxied from this backend — a replica
	// refusing work via its admission gates (quota, queue, overload).
	Sheds int64 `json:"sheds"`
	// CreatesRouted counts sessions placed on this backend.
	CreatesRouted int64 `json:"createsRouted"`
	// Ejections / Readmissions count state-machine transitions.
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	// Probes / ProbeFailures count health checks sent and failed.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probeFailures"`
	// ConsecutiveFailures / ConsecutiveSuccesses expose the state machine's
	// progress toward its next transition.
	ConsecutiveFailures  int `json:"consecutiveFailures,omitempty"`
	ConsecutiveSuccesses int `json:"consecutiveSuccesses,omitempty"`
	// Load echoes the backend's last probe payload.
	Load server.HealthStatus `json:"load"`
	// ProbeAgeSeconds is the time since the last probe (-1 before any).
	ProbeAgeSeconds float64 `json:"probeAgeSeconds"`
	LastError       string  `json:"lastError,omitempty"`
	// LatencyMs is the proxied-request latency histogram.
	LatencyMs server.HistogramSnapshot `json:"latencyMs"`
}

func (b *Backend) snapshot() BackendSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BackendSnapshot{
		Name:                 b.Name,
		URL:                  b.URL.String(),
		State:                StateAdmitted,
		Draining:             b.draining,
		Requests:             b.requests,
		Errors5xx:            b.errors5xx,
		TransportErrors:      b.transport,
		Sheds:                b.sheds,
		CreatesRouted:        b.creates,
		Ejections:            b.ejections,
		Readmissions:         b.readmits,
		Probes:               b.probeTotal,
		ProbeFailures:        b.probeFails,
		ConsecutiveFailures:  b.fails,
		ConsecutiveSuccesses: b.oks,
		Load:                 b.load,
		ProbeAgeSeconds:      -1,
		LastError:            b.lastErr,
		LatencyMs:            b.latency.Snapshot(),
	}
	if b.ejected {
		s.State = StateEjected
	}
	if !b.probedAt.IsZero() {
		s.ProbeAgeSeconds = time.Since(b.probedAt).Seconds()
	}
	return s
}
