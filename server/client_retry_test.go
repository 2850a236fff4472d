package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/obs"
)

// flakyHandler answers failures times with the given status before serving
// the real payload, counting every hit.
type flakyHandler struct {
	failures int32
	status   int
	hits     atomic.Int32
	payload  interface{}
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := h.hits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if n <= h.failures {
		w.WriteHeader(h.status)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "transient"})
		return
	}
	json.NewEncoder(w).Encode(h.payload)
}

// TestClientRetriesIdempotentGet checks a GET that hits a short 503 window —
// a balancer whose backend is mid-ejection, a draining replica — succeeds
// transparently within the retry budget.
func TestClientRetriesIdempotentGet(t *testing.T) {
	h := &flakyHandler{failures: 2, status: http.StatusServiceUnavailable,
		payload: SessionInfo{ID: "s1"}}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, RetryBaseDelay: time.Millisecond}
	info, err := c.Session(context.Background(), "s1")
	if err != nil {
		t.Fatalf("Session after transient 503s: %v", err)
	}
	if info.ID != "s1" {
		t.Fatalf("info.ID = %q, want s1", info.ID)
	}
	if got := h.hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", got)
	}
}

// TestClientDoesNotRetryNonIdempotent checks POSTs fail straight through:
// submits and answers are not idempotent, so the client must not replay them.
func TestClientDoesNotRetryNonIdempotent(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusServiceUnavailable}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, RetryBaseDelay: time.Millisecond}
	if err := c.Answer(context.Background(), "s1", 0, 1); err == nil {
		t.Fatal("Answer against a 503 server succeeded, want error")
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a POST, want exactly 1", got)
	}
}

// TestClientRetryNotOnRealAnswers checks a 4xx — a real answer from the
// service — is never retried even on a GET.
func TestClientRetryNotOnRealAnswers(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusNotFound}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, RetryBaseDelay: time.Millisecond}
	if _, err := c.Session(context.Background(), "nope"); err == nil {
		t.Fatal("Session for a 404 succeeded, want error")
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 404 GET, want exactly 1", got)
	}
}

// TestClientRetryDisabled checks MaxRetries < 0 turns the mechanism off.
func TestClientRetryDisabled(t *testing.T) {
	h := &flakyHandler{failures: 1, status: http.StatusServiceUnavailable,
		payload: SessionInfo{ID: "s1"}}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, MaxRetries: -1}
	if _, err := c.Session(context.Background(), "s1"); err == nil {
		t.Fatal("Session with retries disabled succeeded, want the 503 error")
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests with retries disabled, want 1", got)
	}
}

func TestClientRetryDelay(t *testing.T) {
	c := &Client{}
	if d := c.retryDelay(0, nil); d != 50*time.Millisecond {
		t.Errorf("retryDelay(0) = %v, want 50ms", d)
	}
	if d := c.retryDelay(1, nil); d != 100*time.Millisecond {
		t.Errorf("retryDelay(1) = %v, want 100ms", d)
	}
	if d := c.retryDelay(10, nil); d != time.Second {
		t.Errorf("retryDelay(10) = %v, want the 1s cap", d)
	}
	// An explicit Retry-After hint overrides the computed backoff.
	if d := c.retryDelay(0, &APIError{RetryAfterSeconds: 1}); d != time.Second {
		t.Errorf("retryDelay with Retry-After 1 = %v, want 1s", d)
	}
	if d := c.retryDelay(0, &APIError{RetryAfterSeconds: 30}); d != time.Second {
		t.Errorf("retryDelay with Retry-After 30 = %v, want the 1s cap", d)
	}
}

// TestHealthPayloadFields checks /healthz and /readyz expose the load
// signals a fronting balancer reads for placement and drain detection.
func TestHealthPayloadFields(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); err != nil {
		t.Fatalf("create session: %v", err)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var h HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
		if h.Draining {
			t.Errorf("%s reports draining on a live server", path)
		}
		if h.ActiveSessions != 1 {
			t.Errorf("%s active_sessions = %d, want 1", path, h.ActiveSessions)
		}
		if h.QueueCapacity <= 0 {
			t.Errorf("%s queue_capacity = %d, want > 0", path, h.QueueCapacity)
		}
		if h.QueueDepth < 0 {
			t.Errorf("%s queue_depth = %d, want >= 0", path, h.QueueDepth)
		}
	}
}

// TestClientCancelMidBackoff checks a GET retry sleeping out its backoff
// aborts the instant the caller's context is cancelled — and surfaces the
// cancellation, not the transient error it was about to retry.
func TestClientCancelMidBackoff(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusServiceUnavailable}
	hs := httptest.NewServer(h)
	defer hs.Close()

	// A huge backoff makes the sleep the only place the time can go.
	c := &Client{BaseURL: hs.URL, RetryBaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Session(ctx, "s1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Session succeeded against a permanent 503")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to surface; the backoff sleep ignored ctx", elapsed)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests after cancellation, want 1", got)
	}
}

// TestClientCancelMid429Backoff checks the same for RunUpdate's 429
// backpressure loop: cancellation mid Retry-After sleep returns immediately
// with ctx.Err, not after the full wait.
func TestClientCancelMid429Backoff(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusTooManyRequests}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := &Client{BaseURL: hs.URL}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.RunUpdate(ctx, "s1", "intent", "RM", func(Question) (int, error) { return 1, nil })
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunUpdate succeeded against a permanent 429")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	// The server sends no Retry-After, so the loop's default wait is 1s;
	// cancellation at 20ms must not sit it out.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v to surface; the 429 sleep ignored ctx", elapsed)
	}
}

// TestClientConfigKeepsContract: Config goes through the request path every
// other call takes, so it sends the caller's traceparent on each attempt and
// retries a 503 like any GET.
func TestClientConfigKeepsContract(t *testing.T) {
	const text = "route-map RM permit 10\n"
	var mu sync.Mutex
	var parents []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		parents = append(parents, r.Header.Get(obs.TraceParentHeader))
		first := len(parents) == 1
		mu.Unlock()
		if first {
			writeError(w, http.StatusServiceUnavailable, "transient", 0)
			return
		}
		io.WriteString(w, text)
	}))
	defer hs.Close()

	tp, ok := obs.ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("bad test traceparent")
	}
	c := &Client{BaseURL: hs.URL, RetryBaseDelay: time.Millisecond}
	got, err := c.Config(obs.ContextWithTraceParent(context.Background(), tp), "s1")
	if err != nil || got != text {
		t.Fatalf("Config = %q, %v; want %q after one retried 503", got, err, text)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(parents) != 2 {
		t.Fatalf("server saw %d requests, want 2 (503 + success)", len(parents))
	}
	for i := range parents {
		if parents[i] != tp.String() {
			t.Errorf("request %d carried traceparent %q, want %s", i+1, parents[i], tp)
		}
	}
}
