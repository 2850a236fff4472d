package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/resilience"
)

// readAll drains and closes an HTTP response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// panicClient panics on its nth completion (1-based); other calls delegate.
type panicClient struct {
	inner llm.Client
	n     int32
	at    int32
}

func (p *panicClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if atomic.AddInt32(&p.n, 1) == p.at {
		panic("synthetic pipeline panic")
	}
	return p.inner.Complete(ctx, req)
}

// blockingClient parks every completion until its context expires.
type blockingClient struct{}

func (blockingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

// failingClient fails every completion.
type failingClient struct{}

func (failingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{}, context.DeadlineExceeded
}

// TestPoolContainsPanics exercises the pool-level last-resort recovery: a job
// that panics must not kill its worker, and the pool must keep draining jobs.
func TestPoolContainsPanics(t *testing.T) {
	var recovered int64
	p := newPool(2, 4, func(interface{}) { atomic.AddInt64(&recovered, 1) })
	done := make(chan struct{}, 8)
	for i := 0; i < 4; i++ {
		err := p.Submit(func() {
			done <- struct{}{}
			panic("boom")
		}, nil)
		if err != nil {
			t.Fatalf("submit %d rejected", i)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("panicking job %d never ran", i)
		}
	}
	// Followed by normal jobs: workers must have survived the panics. The
	// queue may still hold a just-finished job's slot, so retry briefly.
	for i := 0; i < 4; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for p.Submit(func() { done <- struct{}{} }, nil) != nil {
			if time.Now().After(deadline) {
				t.Fatalf("post-panic submit %d rejected: workers died", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("post-panic job %d never ran: a worker died", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := atomic.LoadInt64(&recovered); n != 4 {
		t.Fatalf("recovered %d panics, want 4", n)
	}
}

// TestPanickingUpdateFailsCleanly submits an update whose LLM client panics:
// the update must fail with a synthetic error, the session must be released
// for the next update, and the panic counter must increment — the daemon
// itself keeps serving.
func TestPanickingUpdateFailsCleanly(t *testing.T) {
	pc := &panicClient{inner: llm.NewSimLLM(), at: 1}
	srv, c := startServer(t, Options{Workers: 1, NewClient: func() llm.Client { return pc }})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Status != StatusFailed || !strings.Contains(res.Error, "update panicked") {
		t.Fatalf("got %q/%q, want failed update with panic error", res.Status, res.Error)
	}
	if m := srv.met.snapshot(); m.PanicsRecovered != 1 || m.FailedUpdates != 1 {
		t.Errorf("PanicsRecovered/FailedUpdates = %d/%d, want 1/1", m.PanicsRecovered, m.FailedUpdates)
	}

	// The session must be reusable: the panic consumed the client's only
	// planned fault, so the rerun completes normally.
	res, err = c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if res.Status != StatusDone {
		t.Fatalf("post-panic update = %q (%s), want done", res.Status, res.Error)
	}
}

// TestUpdateTimeoutFreesWorker bounds an update whose LLM call never returns:
// the deadline budget must fail the update, count it, and hand the worker
// back.
func TestUpdateTimeoutFreesWorker(t *testing.T) {
	srv, c := startServer(t, Options{
		Workers:       1,
		UpdateTimeout: 50 * time.Millisecond,
		NewClient:     func() llm.Client { return blockingClient{} },
	})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	start := time.Now()
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Status != StatusFailed || !strings.Contains(res.Error, "budget") {
		t.Fatalf("got %q/%q, want deadline failure", res.Status, res.Error)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("timeout took %s, budget was 50ms", e)
	}
	if m := srv.met.snapshot(); m.UpdateTimeouts != 1 || m.FailedUpdates != 1 {
		t.Errorf("UpdateTimeouts/FailedUpdates = %d/%d, want 1/1", m.UpdateTimeouts, m.FailedUpdates)
	}
	// The single worker must be free again: a second submit on a fresh
	// session must be picked up (and time out the same way) rather than
	// queue forever.
	sid2, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session 2: %v", err)
	}
	res, err = c.RunUpdate(ctx, sid2, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("second update = %q, want failed", res.Status)
	}
}

// TestDegradedModeHealthAndFlag runs the §2.1 walkthrough against a stack
// whose primary always fails: SimLLM serves as fallback, the update succeeds
// flagged degraded, and /healthz + /readyz report degraded while staying 200.
func TestDegradedModeHealthAndFlag(t *testing.T) {
	stack := resilience.NewStack(failingClient{}, "http",
		resilience.BreakerConfig{FailureRate: 0.5, MinRequests: 2, Cooldown: time.Hour},
		llm.NewSimLLM(), "sim")
	srv, c := startServer(t, Options{
		Workers:    2,
		NewClient:  func() llm.Client { return stack.Client() },
		Resilience: stack,
	})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone {
		t.Fatalf("update = %q (%s), want done via fallback", res.Status, res.Error)
	}
	if !res.Degraded {
		t.Error("UpdateInfo.Degraded = false, want true (served by fallback)")
	}

	// Liveness stays 200 but reports degraded.
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200 (degraded is alive): %s", path, resp.StatusCode, body)
		}
		if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, `"fallback"`) {
			t.Errorf("%s body missing degraded payload: %s", path, body)
		}
	}

	// /metrics carries the resilience snapshot.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.Resilience == nil || !snap.Resilience.Degraded {
		t.Fatalf("metrics resilience = %+v, want degraded", snap.Resilience)
	}
	if snap.Resilience.Chain == nil || snap.Resilience.Chain.Fallbacks == 0 {
		t.Errorf("chain fallbacks not counted: %+v", snap.Resilience.Chain)
	}
}

// TestReadyzUnreadyWithoutFallback reports 503 when the breaker is open and
// there is nothing to fall back to.
func TestReadyzUnreadyWithoutFallback(t *testing.T) {
	stack := resilience.NewStack(failingClient{}, "http",
		resilience.BreakerConfig{FailureRate: 0.5, MinRequests: 1, Cooldown: time.Hour},
		nil, "")
	srv, _ := startServer(t, Options{
		NewClient:  func() llm.Client { return stack.Client() },
		Resilience: stack,
	})
	// Trip the breaker directly; no HTTP traffic needed.
	stack.Breaker().Record(false)
	if stack.Breaker().State() != resilience.Open {
		t.Fatal("breaker did not open")
	}

	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "breaker-open") {
		t.Errorf("/readyz body missing breaker-open: %s", body)
	}
	// Liveness is unaffected: the daemon should not be restarted for this.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200: %s", resp.StatusCode, body)
	}
}
