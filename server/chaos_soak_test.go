package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clarifynet/clarify/chaoshttp"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/llm/llmtest"
	"github.com/clarifynet/clarify/resilience"
)

// chaosStack wires the full production LLM path for tests: SimLLM served
// over real HTTP behind a chaos transport, wrapped in retries, a breaker,
// and a SimLLM fallback.
type chaosStack struct {
	rt       *chaoshttp.RoundTripper
	endpoint *httptest.Server
	stack    *resilience.Stack
}

func newChaosStack(t *testing.T, plan chaoshttp.Plan, cfg resilience.BreakerConfig, withFallback bool) *chaosStack {
	t.Helper()
	endpoint := httptest.NewServer(llmtest.NewHandler(llm.NewSimLLM()))
	t.Cleanup(endpoint.Close)
	rt := chaoshttp.New(plan, endpoint.Client().Transport)
	primary := &llm.HTTPClient{
		BaseURL:        endpoint.URL,
		Model:          "sim",
		HTTP:           &http.Client{Transport: rt, Timeout: 10 * time.Second},
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
	}
	var fallback llm.Client
	if withFallback {
		fallback = llm.NewSimLLM()
	}
	return &chaosStack{
		rt:       rt,
		endpoint: endpoint,
		stack:    resilience.NewStack(primary, cfg, fallback),
	}
}

// soakBreakerConfig trips and recovers fast enough for test timescales.
func soakBreakerConfig() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		MinRequests: 4,
		Window:      2 * time.Second,
		Cooldown:    20 * time.Millisecond,
	}
}

// runSessions drives updates concurrent sessions × perSession updates each
// through the full HTTP API, answering every question with OPTION 1, and
// returns (done, failed) counts.
func runSessions(t *testing.T, c *Client, sessions, perSession int) (int64, int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var mu sync.Mutex
	var done, failed int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
			if err != nil {
				t.Errorf("create session: %v", err)
				return
			}
			for j := 0; j < perSession; j++ {
				res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
					func(q Question) (int, error) { return 1, nil })
				if err != nil {
					t.Errorf("run update: %v", err)
					return
				}
				mu.Lock()
				switch res.Status {
				case StatusDone:
					done++
				case StatusFailed:
					failed++
				default:
					t.Errorf("update ended non-terminal: %+v", res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, failed
}

// TestChaosSoak hammers a daemon whose primary LLM endpoint injects mixed
// faults, then a second daemon whose endpoint goes hard-down and then heals
// — asserting every update reaches a terminal state, the mixed faults reach
// the retried primary, the breaker opens under sustained failure and closes
// after recovery, no session wedges, and no goroutines leak.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	baseline := runtime.NumGoroutine()
	start := func(cs *chaosStack) (*Server, *httptest.Server, *Client) {
		srv := New(Options{
			Workers:       8,
			QueueSize:     64,
			UpdateTimeout: 30 * time.Second,
			LLM:           cs.stack,
		})
		hs := httptest.NewServer(srv)
		return srv, hs, &Client{BaseURL: hs.URL, PollInterval: 2 * time.Millisecond}
	}
	stop := func(srv *Server, hs *httptest.Server, cs *chaosStack) {
		// No stuck sessions: every hosted session must be idle (not busy).
		for _, sn := range srv.mgr.List() {
			if info := sn.info(); info.Busy {
				t.Errorf("session %s still busy after soak", info.ID)
			}
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		hs.Close()
		cs.endpoint.Close()
	}

	// Phase 1: mixed chaos against a breaker that cannot open within it (its
	// MinRequests is above the phase's ~600 completions), so every
	// completion reaches the retried primary. Retries plus the fallback must
	// keep every update terminal; with SimLLM behind both backends they
	// should all succeed.
	mixed := newChaosStack(t, chaoshttp.Plan{
		Seed:         42,
		Reset:        0.12,
		HTTP429:      0.08,
		HTTP503:      0.08,
		Garbage:      0.08,
		Truncate:     0.05,
		Stall:        0.04,
		Latency:      0.2,
		LatencyDelay: time.Millisecond,
		StallDelay:   5 * time.Millisecond,
	}, resilience.BreakerConfig{MinRequests: 1 << 20}, true)
	srv, hs, c := start(mixed)
	done, failed := runSessions(t, c, 10, 20)
	counts := mixed.rt.Counts()
	t.Logf("mixed chaos: done=%d failed=%d injected: %s", done, failed, counts)
	if done+failed != 200 {
		t.Fatalf("lost updates: done=%d failed=%d, want 200 terminal", done, failed)
	}
	if done == 0 {
		t.Fatal("no update succeeded under mixed chaos")
	}
	if counts.Total < 300 {
		t.Errorf("mixed chaos sent %d requests to the primary, want at least 300", counts.Total)
	}
	for _, kind := range []string{"reset", "http429", "http503", "garbage", "truncate", "stall"} {
		if counts.Injected[kind] == 0 {
			t.Errorf("mixed chaos injected no %s fault: %s", kind, counts)
		}
	}
	if bs := mixed.stack.Breaker().Stats(); bs.Opens != 0 {
		t.Errorf("breaker = %+v after mixed chaos, want never opened", bs)
	}
	stop(srv, hs, mixed)

	// Phase 2: hard-down primary, behind a breaker that trips at test
	// timescales. A healthy start fills its rolling window with successes,
	// which the failures must outnumber or outlive before the failure rate
	// trips it, so keep failing traffic flowing until it opens; the
	// fallback must serve throughout.
	cs := newChaosStack(t, chaoshttp.Plan{}, soakBreakerConfig(), true)
	srv, hs, c = start(cs)
	if _, f := runSessions(t, c, 4, 2); f != 0 {
		t.Fatalf("healthy start: %d updates failed", f)
	}
	cs.rt.SetPlan(chaoshttp.Plan{Reset: 1})
	openBy := time.Now().Add(30 * time.Second)
	for cs.stack.Breaker().State() != resilience.Open {
		if time.Now().After(openBy) {
			t.Fatalf("breaker never opened under hard-down primary: %+v", cs.stack.Breaker().Stats())
		}
		if _, f := runSessions(t, c, 4, 2); f != 0 {
			t.Fatalf("hard-down phase: %d updates failed despite fallback", f)
		}
	}
	bs := cs.stack.Breaker().Stats()
	if bs.Opens == 0 || bs.State != "open" {
		t.Errorf("breaker = %+v after hard-down phase, want open", bs)
	}

	// The breaker state must be visible on the Prometheus endpoint.
	resp, err := http.Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"clarifyd_llm_breaker_state 1",
		"clarifyd_llm_breaker_opens_total",
		"clarifyd_llm_fallback_total",
		`clarifyd_llm_backend_served_total{backend="sim"}`,
		"clarifyd_panics_recovered_total 0",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// Phase 3: heal the endpoint; probe traffic must close the breaker and
	// the stack must leave degraded mode.
	cs.rt.SetPlan(chaoshttp.Plan{})
	deadline := time.Now().Add(30 * time.Second)
	for cs.stack.Breaker().State() != resilience.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker did not close after healing: %+v", cs.stack.Breaker().Stats())
		}
		if _, f := runSessions(t, c, 1, 1); f != 0 {
			t.Fatal("update failed after healing")
		}
	}
	if cs.stack.Degraded() {
		t.Error("stack still degraded after breaker closed and primary served")
	}

	// Drain and check for goroutine leaks.
	stop(srv, hs, cs)
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live vs baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosHardDownFallback is the acceptance walkthrough: with the primary
// endpoint 100% down, the §2.1 update completes via the SimLLM fallback in
// degraded mode and the daemon reports it everywhere it should.
func TestChaosHardDownFallback(t *testing.T) {
	// One walkthrough makes only ~3 primary attempts, so trip after 2 and
	// keep the breaker open for the rest of the test.
	cs := newChaosStack(t, chaoshttp.Plan{Reset: 1}, resilience.BreakerConfig{
		MinRequests: 2,
		Cooldown:    time.Hour,
	}, true)
	srv, c := startServer(t, Options{Workers: 2, LLM: cs.stack})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(q Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone || res.Result == nil {
		t.Fatalf("walkthrough did not finish via fallback: %+v", res)
	}
	if res.Result.Questions != 2 {
		t.Errorf("walkthrough asked %d questions, want 2", res.Result.Questions)
	}
	if !res.Degraded {
		t.Error("walkthrough update not flagged degraded")
	}
	cfg, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatalf("fetch config: %v", err)
	}
	if !strings.Contains(cfg, "set metric 55") {
		t.Errorf("updated config missing synthesized stanza:\n%s", cfg)
	}

	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"degraded"`) {
		t.Errorf("/healthz = %d %s, want 200 degraded", resp.StatusCode, body)
	}
	resp, err = http.Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "clarifyd_llm_breaker_state 1") {
		t.Error("prometheus exposition does not report the breaker open")
	}
}

// TestFaultInjectionSweep measures update success across primary failure
// rates with and without the SimLLM fallback; the logged table backs the
// EXPERIMENTS.md fault-injection sweep.
func TestFaultInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	const perRun = 8
	for _, withFallback := range []bool{false, true} {
		for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			name := fmt.Sprintf("rate=%.2f/fallback=%v", rate, withFallback)
			t.Run(name, func(t *testing.T) {
				cs := newChaosStack(t, chaoshttp.Plan{Seed: 7, Reset: rate},
					soakBreakerConfig(), withFallback)
				_, c := startServer(t, Options{
					Workers:       4,
					QueueSize:     16,
					UpdateTimeout: 30 * time.Second,
					LLM:           cs.stack,
				})
				done, failed := runSessions(t, c, 4, perRun/4)
				t.Logf("sweep rate=%.2f fallback=%v: %d/%d updates succeeded",
					rate, withFallback, done, done+failed)
				if withFallback && failed > 0 {
					t.Errorf("%d updates failed with fallback configured", failed)
				}
				if !withFallback && rate == 1.0 && done > 0 {
					t.Errorf("%d updates succeeded against a hard-down primary with no fallback", done)
				}
			})
		}
	}
}
