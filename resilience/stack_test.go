package resilience

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
)

// The Chain tests drive a Stack's two backends, tried primary first: the
// order its stats report as the "chain" block.

func TestChainPrimaryServes(t *testing.T) {
	ch := NewStack(okClient{content: "primary"}, BreakerConfig{}, okClient{content: "fallback"})
	ctx, flags := WithFlags(context.Background())
	resp, err := ch.Complete(ctx, llm.Request{})
	if err != nil || resp.Content != "primary" {
		t.Fatalf("Complete = %q, %v; want primary", resp.Content, err)
	}
	if flags.Degraded() || ch.Degraded() {
		t.Error("primary success must not mark degraded")
	}
	st := ch.Stats().Chain
	if st.Backends[0].Served != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChainFallsBackAndMarksDegraded(t *testing.T) {
	ch := NewStack(errClient{err: errors.New("down")}, BreakerConfig{}, okClient{content: "fallback"})
	ctx, flags := WithFlags(context.Background())
	resp, err := ch.Complete(ctx, llm.Request{})
	if err != nil || resp.Content != "fallback" {
		t.Fatalf("Complete = %q, %v; want fallback", resp.Content, err)
	}
	if !flags.Degraded() {
		t.Error("fallback completion must mark the update degraded")
	}
	if !ch.Degraded() {
		t.Error("chain must latch degraded")
	}
	st := ch.Stats().Chain
	if st.Fallbacks != 1 || st.Backends[0].Failures != 1 || st.Backends[1].Served != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Backends[0].Name != "http" || st.Backends[1].Name != "sim" {
		t.Errorf("backend names = %q, %q; want http, sim", st.Backends[0].Name, st.Backends[1].Name)
	}
}

func TestChainRecoveryClearsDegraded(t *testing.T) {
	primary := &flippableClient{err: errors.New("down")}
	ch := NewStack(primary, BreakerConfig{}, okClient{content: "fallback"})
	ch.Complete(context.Background(), llm.Request{})
	if !ch.Degraded() {
		t.Fatal("expected degraded after fallback")
	}
	primary.setErr(nil)
	ch.Complete(context.Background(), llm.Request{})
	if ch.Degraded() {
		t.Error("primary success must clear degraded")
	}
}

// flippableClient fails until its error is cleared.
type flippableClient struct {
	mu  sync.Mutex
	err error
}

func (c *flippableClient) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

func (c *flippableClient) Complete(context.Context, llm.Request) (llm.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return llm.Response{}, c.err
	}
	return llm.Response{Content: "primary"}, nil
}

func TestChainExhausted(t *testing.T) {
	ch := NewStack(errClient{err: errors.New("a")}, BreakerConfig{}, errClient{err: errors.New("b")})
	_, err := ch.Complete(context.Background(), llm.Request{})
	if err == nil {
		t.Fatal("want error when every backend fails")
	}
	if !strings.Contains(err.Error(), "all 2 backend(s) failed") {
		t.Errorf("error = %v", err)
	}
	st := ch.Stats().Chain
	if st.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", st.Exhausted)
	}
	if st.Backends[0].Failures != 1 || st.Backends[1].Failures != 1 || st.Backends[1].Served != 0 {
		t.Errorf("stats = %+v, want one failure per backend", st)
	}
}

func TestChainAbortsOnCallerCancellation(t *testing.T) {
	fallbackCalls := 0
	ch := NewStack(errClient{err: errors.New("down")}, BreakerConfig{},
		countingClient{calls: &fallbackCalls, err: errors.New("unused")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ch.Complete(ctx, llm.Request{})
	if err == nil {
		t.Fatal("want error on cancelled context")
	}
	if fallbackCalls != 0 {
		t.Errorf("fallback called %d times on a cancelled update, want 0", fallbackCalls)
	}
}

func TestChainRecordsSpanAttributes(t *testing.T) {
	ch := NewStack(errClient{err: errors.New("down")}, BreakerConfig{}, okClient{content: "ok"})
	tr := obs.NewTrace("update")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root)
	if _, err := ch.Complete(ctx, llm.Request{}); err != nil {
		t.Fatal(err)
	}
	if a, ok := tr.Root.Attr("llm-backend"); !ok || a.Str != "sim" {
		t.Errorf("llm-backend attr = %+v, %v", a, ok)
	}
	if a, ok := tr.Root.Attr("llm-fallback"); !ok || !a.Bool {
		t.Errorf("llm-fallback attr = %+v, %v", a, ok)
	}
}

func TestStackShortCircuitsPrimaryAfterTrip(t *testing.T) {
	primaryCalls := 0
	stack := NewStack(
		countingClient{calls: &primaryCalls, err: errors.New("down")},
		BreakerConfig{MinRequests: 3, Window: time.Minute, Cooldown: time.Minute},
		okClient{content: "sim"},
	)
	for i := 0; i < 20; i++ {
		resp, err := stack.Complete(context.Background(), llm.Request{})
		if err != nil || resp.Content != "sim" {
			t.Fatalf("call %d: %q, %v", i, resp.Content, err)
		}
	}
	if primaryCalls != 3 {
		t.Errorf("primary calls = %d, want 3 (breaker trips, rest short-circuit)", primaryCalls)
	}
	if !stack.Degraded() {
		t.Error("stack must report degraded while serving via fallback")
	}
	if stack.CanServe() != true {
		t.Error("stack with a fallback can always serve")
	}
	st := stack.Stats()
	if st == nil || st.Breaker == nil || st.Breaker.State != "open" {
		t.Fatalf("stats = %+v, want open breaker", st)
	}
	if st.Chain.Fallbacks != 20 {
		t.Errorf("fallbacks = %d, want 20", st.Chain.Fallbacks)
	}
}

func TestStackNoFallbackCannotServeWhenOpen(t *testing.T) {
	stack := NewStack(
		errClient{err: errors.New("down")},
		BreakerConfig{MinRequests: 2, Window: time.Minute, Cooldown: time.Minute},
		nil,
	)
	for i := 0; i < 4; i++ {
		stack.Complete(context.Background(), llm.Request{})
	}
	if stack.CanServe() {
		t.Error("open breaker with no fallback cannot serve")
	}
	if !stack.Degraded() {
		t.Error("open breaker is degraded")
	}
}

func TestStackRecovers(t *testing.T) {
	primary := &flippableClient{err: errors.New("down")}
	stack := NewStack(primary,
		BreakerConfig{MinRequests: 2, Window: time.Minute, Cooldown: time.Millisecond},
		okClient{content: "sim"})
	for i := 0; i < 4; i++ {
		stack.Complete(context.Background(), llm.Request{})
	}
	if !stack.Degraded() {
		t.Fatal("expected degraded during outage")
	}
	primary.setErr(nil)
	time.Sleep(5 * time.Millisecond) // past the cooldown
	resp, err := stack.Complete(context.Background(), llm.Request{})
	if err != nil || resp.Content != "primary" {
		t.Fatalf("post-recovery call = %q, %v; want primary", resp.Content, err)
	}
	if stack.Degraded() {
		t.Error("recovered stack must clear degraded")
	}
	if st := stack.Stats(); st.Breaker.State != "closed" {
		t.Errorf("breaker state = %s, want closed", st.Breaker.State)
	}
}

// TestHTTPStackRetryBudget: the http primary re-attempts a completion three
// times, so three 503s in a row cost one completion nothing and a fourth
// fails it.
func TestHTTPStackRetryBudget(t *testing.T) {
	for _, tc := range []struct {
		unavailable int32
		wantErr     bool
	}{{3, false}, {4, true}} {
		var requests atomic.Int32
		endpoint := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if requests.Add(1) <= tc.unavailable {
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"error":{"message":"overloaded"}}`, http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, `{"choices":[{"message":{"role":"assistant","content":"ok"}}]}`)
		}))
		s := NewHTTPStack(endpoint.URL, "m", "", nil, nil)
		resp, err := s.Complete(context.Background(), llm.Request{})
		endpoint.Close()
		if got := requests.Load(); got != 4 {
			t.Errorf("%d unavailable: endpoint saw %d requests, want 4", tc.unavailable, got)
		}
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "all 1 backend(s) failed") {
				t.Errorf("%d unavailable: err = %v, want the primary's failure", tc.unavailable, err)
			}
		} else if err != nil || resp.Content != "ok" {
			t.Errorf("%d unavailable: Complete = %q, %v; want ok", tc.unavailable, resp.Content, err)
		}
	}
}

// TestHTTPStackRefusedFallsBackAtOnce: with nothing listening at the
// endpoint, the fallback serves the completion without waiting out the
// primary's retry budget.
func TestHTTPStackRefusedFallsBackAtOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	s := NewHTTPStack("http://"+ln.Addr().String(), "m", "", llm.NewSimLLM(), nil)
	ctx, flags := WithFlags(context.Background())
	req := llm.BuiltinPrompts().BuildRequest(llm.TaskClassify, llm.Message{Role: llm.RoleUser,
		Content: "Write an ACL entry that blocks udp traffic to port 53."})
	start := time.Now()
	resp, err := s.Complete(ctx, req)
	if elapsed := time.Since(start); err != nil || resp.Content != "acl" || elapsed >= 200*time.Millisecond {
		t.Errorf("Complete = %q, %v after %s; want the fallback's acl within 200ms", resp.Content, err, elapsed)
	}
	if st := s.Stats().Chain; !flags.Degraded() || st.Fallbacks != 1 {
		t.Errorf("degraded = %v, stats = %+v; want one fallback", flags.Degraded(), st)
	}
}
