// Package chaoshttp is a deterministic fault-injection test fixture for HTTP
// clients: a seeded RoundTripper that perturbs requests with the failure
// modes real LLM endpoints exhibit — connection resets, 429/503 bursts,
// garbage and truncated JSON bodies, latency spikes, and stalls.
//
// Tests put it in front of an llm/llmtest endpoint to drive the LLM backend
// path through those faults: the -race chaos soak and the fault-injection
// sweep in the server package, and loadgen's hard-down run. A Plan is
// built in Go; the probabilities of its faults must sum to at most 1.
//
// Determinism: fault draws come from one seeded math/rand source consumed
// in request order, so a single-threaded request sequence sees an identical
// fault sequence for a given seed. Under concurrency the interleaving
// assigns draws to requests nondeterministically, but the multiset of
// injected faults over N requests is still reproducible.
package chaoshttp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fault is one injectable failure mode.
type Fault int

// Fault kinds, in evaluation order.
const (
	// FaultReset drops the request with a connection-reset transport error.
	FaultReset Fault = iota
	// FaultHTTP429 synthesizes a 429 Too Many Requests response carrying a
	// Retry-After header.
	FaultHTTP429
	// FaultHTTP503 synthesizes a 503 Service Unavailable response.
	FaultHTTP503
	// FaultGarbage synthesizes a 200 response whose body is not JSON.
	FaultGarbage
	// FaultTruncate forwards the request but cuts the response body in half
	// mid-JSON.
	FaultTruncate
	// FaultStall hangs the request for StallDelay (bounded by the request
	// context) and then fails it with a transport error.
	FaultStall
)

func (f Fault) String() string {
	switch f {
	case FaultReset:
		return "reset"
	case FaultHTTP429:
		return "http429"
	case FaultHTTP503:
		return "http503"
	case FaultGarbage:
		return "garbage"
	case FaultTruncate:
		return "truncate"
	case FaultStall:
		return "stall"
	default:
		return "unknown"
	}
}

// faults lists every kind, in evaluation order.
var faults = []Fault{FaultReset, FaultHTTP429, FaultHTTP503, FaultGarbage, FaultTruncate, FaultStall}

// Plan is a fault plan: independent per-request probabilities for each fault
// (at most one fault fires per request, evaluated cumulatively in the order
// above) plus an orthogonal latency spike probability applied to requests
// that pass.
type Plan struct {
	// Seed seeds the deterministic fault sequence.
	Seed int64
	// Probability of each fault, each in [0,1]; their sum must be <= 1.
	Reset, HTTP429, HTTP503, Garbage, Truncate, Stall float64
	// Latency is the probability that a passing request is delayed by
	// LatencyDelay (default 50ms) before being forwarded.
	Latency      float64
	LatencyDelay time.Duration
	// StallDelay bounds how long a stalled request hangs before failing
	// (default 5s); the request context can cut it shorter.
	StallDelay time.Duration
	// RetryAfterSeconds is advertised on injected 429 responses (0 means
	// "retry immediately", which keeps chaos tests fast).
	RetryAfterSeconds int
}

// prob returns the plan probability for one fault kind.
func (p Plan) prob(f Fault) float64 {
	switch f {
	case FaultReset:
		return p.Reset
	case FaultHTTP429:
		return p.HTTP429
	case FaultHTTP503:
		return p.HTTP503
	case FaultGarbage:
		return p.Garbage
	case FaultTruncate:
		return p.Truncate
	case FaultStall:
		return p.Stall
	default:
		return 0
	}
}

// Counts reports what a RoundTripper has injected so far.
type Counts struct {
	// Total is the number of requests seen.
	Total int64 `json:"total"`
	// Passed is the number forwarded unperturbed (latency spikes count as
	// passed).
	Passed int64 `json:"passed"`
	// Injected maps fault name to injection count.
	Injected map[string]int64 `json:"injected"`
	// LatencySpikes counts passing requests that were delayed.
	LatencySpikes int64 `json:"latencySpikes"`
}

// String renders counts compactly for logs: "total=N passed=N reset=N ...".
func (c Counts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d passed=%d", c.Total, c.Passed)
	keys := make([]string, 0, len(c.Injected))
	for k := range c.Injected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, c.Injected[k])
	}
	if c.LatencySpikes > 0 {
		fmt.Fprintf(&b, " latency=%d", c.LatencySpikes)
	}
	return b.String()
}

// RoundTripper injects Plan faults in front of a real transport. It is safe
// for concurrent use; SetPlan swaps the plan at runtime (e.g. to heal the
// endpoint mid-soak and watch the breaker close).
type RoundTripper struct {
	next http.RoundTripper

	mu     sync.Mutex
	plan   Plan
	rng    *rand.Rand
	counts Counts
}

// New builds a fault-injecting RoundTripper around next (nil selects
// http.DefaultTransport).
func New(plan Plan, next http.RoundTripper) *RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &RoundTripper{
		next:   next,
		plan:   plan,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		counts: Counts{Injected: map[string]int64{}},
	}
}

// SetPlan replaces the fault plan (the random sequence continues; pass a
// zero Plan to heal the endpoint).
func (rt *RoundTripper) SetPlan(p Plan) {
	rt.mu.Lock()
	rt.plan = p
	rt.mu.Unlock()
}

// Counts snapshots the injection counters.
func (rt *RoundTripper) Counts() Counts {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.counts
	out.Injected = make(map[string]int64, len(rt.counts.Injected))
	for k, v := range rt.counts.Injected {
		out.Injected[k] = v
	}
	return out
}

// draw picks this request's fate under the lock: the fault to inject (or -1
// to pass) and whether to add latency.
func (rt *RoundTripper) draw() (fault Fault, inject, latency bool, plan Plan) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	plan = rt.plan
	rt.counts.Total++
	r := rt.rng.Float64()
	cum := 0.0
	for _, f := range faults {
		cum += plan.prob(f)
		if r < cum {
			rt.counts.Injected[f.String()]++
			return f, true, false, plan
		}
	}
	rt.counts.Passed++
	if plan.Latency > 0 && rt.rng.Float64() < plan.Latency {
		rt.counts.LatencySpikes++
		return 0, false, true, plan
	}
	return 0, false, false, plan
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	fault, inject, latency, plan := rt.draw()
	if !inject {
		if latency {
			delay := plan.LatencyDelay
			if delay <= 0 {
				delay = 50 * time.Millisecond
			}
			if err := sleepCtx(req.Context(), delay); err != nil {
				closeBody(req)
				return nil, err
			}
		}
		return rt.next.RoundTrip(req)
	}
	switch fault {
	case FaultReset:
		closeBody(req)
		return nil, fmt.Errorf("chaoshttp: injected reset: %w", syscall.ECONNRESET)
	case FaultHTTP429:
		closeBody(req)
		resp := synthesize(req, http.StatusTooManyRequests, `{"error":{"message":"chaoshttp: injected rate limit"}}`)
		resp.Header.Set("Retry-After", strconv.Itoa(plan.RetryAfterSeconds))
		return resp, nil
	case FaultHTTP503:
		closeBody(req)
		return synthesize(req, http.StatusServiceUnavailable, `{"error":{"message":"chaoshttp: injected overload"}}`), nil
	case FaultGarbage:
		closeBody(req)
		return synthesize(req, http.StatusOK, "<<<chaoshttp: this is not JSON>>>"), nil
	case FaultTruncate:
		resp, err := rt.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if rerr != nil {
			return nil, fmt.Errorf("chaoshttp: truncate read: %w", rerr)
		}
		cut := body[:len(body)/2]
		resp.Body = io.NopCloser(strings.NewReader(string(cut)))
		resp.ContentLength = int64(len(cut))
		resp.Header.Del("Content-Length")
		return resp, nil
	case FaultStall:
		closeBody(req)
		delay := plan.StallDelay
		if delay <= 0 {
			delay = 5 * time.Second
		}
		if err := sleepCtx(req.Context(), delay); err != nil {
			return nil, fmt.Errorf("chaoshttp: stalled until cancellation: %w", err)
		}
		return nil, fmt.Errorf("chaoshttp: injected stall elapsed: %w", syscall.ECONNRESET)
	default:
		return rt.next.RoundTrip(req)
	}
}

// synthesize fabricates a minimal JSON-ish response for an injected status.
func synthesize(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// closeBody releases the request body when the transport short-circuits
// without forwarding (the RoundTripper contract).
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ http.RoundTripper = (*RoundTripper)(nil)
