package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/tenant"
)

// slowLLM delegates to the simulated LLM after a fixed delay, so each update
// occupies its worker long enough for queue-order assertions to be stable.
type slowLLM struct {
	inner llm.Client
	delay time.Duration
}

func (s slowLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
	return s.inner.Complete(ctx, req)
}

// TestTenantHeaderBindsSession: the X-Clarify-Tenant header on session
// creation binds the session to that tenant, visible in SessionInfo; an
// invalid header is rejected outright.
func TestTenantHeaderBindsSession(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	c.Tenant = "teamA"
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	info, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatalf("session info: %v", err)
	}
	if info.Tenant != "teamA" {
		t.Errorf("SessionInfo.Tenant = %q, want teamA", info.Tenant)
	}

	bad := &Client{BaseURL: c.BaseURL, Tenant: "no spaces allowed"}
	var apiErr *APIError
	if _, err := bad.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant header accepted: %v", err)
	}
}

// TestTenantRateQuota429: a tenant over its submit rate is bounced with 429,
// Retry-After, and a typed X-Clarify-Shed reason — before any update record
// is allocated — and the shed shows up in the per-tenant metrics.
func TestTenantRateQuota429(t *testing.T) {
	reg := tenant.NewRegistry(tenant.RegistryConfig{Profiles: []tenant.Profile{
		{Name: "mallory", Rate: 0.0001, Burst: 1},
	}})
	_, c := startServer(t, Options{Workers: 2, Tenants: reg})
	c.Tenant = "mallory"
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sid, stop)

	// First submit consumes the lone token and completes.
	if res, err := c.Submit(ctx, sid, exampleIntent, "ISP_OUT"); err != nil || res.Status != StatusDone {
		t.Fatalf("first submit = %v/%v, want done", res.Status, err)
	}
	before, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatalf("session info: %v", err)
	}

	// Second submit must shed. SubmitAsync carries no client-side 429
	// retry, so the rejection surfaces directly.
	_, err = c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %v, want 429", err)
	}
	if apiErr.RetryAfterSeconds <= 0 {
		t.Errorf("429 carried RetryAfterSeconds %d, want > 0", apiErr.RetryAfterSeconds)
	}

	// The bounce happened before beginUpdate: no update record grew.
	after, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatalf("session info: %v", err)
	}
	if after.Updates != before.Updates {
		t.Errorf("shed submit allocated an update record: %d -> %d", before.Updates, after.Updates)
	}

	// Per-tenant metrics carry the shed, keyed by reason.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	tm, ok := snap.Tenants["mallory"]
	if !ok {
		t.Fatalf("metrics lack tenant mallory: %+v", snap.Tenants)
	}
	if tm.Sheds[tenant.ReasonRate] == 0 {
		t.Errorf("tenant sheds = %+v, want rate > 0", tm.Sheds)
	}
	if tm.Submits == 0 || tm.SLO == nil {
		t.Errorf("tenant metrics incomplete: %+v", tm)
	}
}

// TestTenantConcurrencyQuota409Free: a tenant at its in-flight cap is
// bounced with the concurrency reason and recovers once the update drains.
func TestTenantConcurrencyQuota(t *testing.T) {
	reg := tenant.NewRegistry(tenant.RegistryConfig{Profiles: []tenant.Profile{
		{Name: "teamA", MaxConcurrent: 1},
	}})
	_, c := startServer(t, Options{
		Workers:   2,
		Tenants:   reg,
		NewClient: func() llm.Client { return slowLLM{inner: llm.NewSimLLM(), delay: 50 * time.Millisecond} },
	})
	c.Tenant = "teamA"
	ctx := context.Background()

	sid1, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create 1: %v", err)
	}
	sid2, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sid1, stop)

	if _, err := c.SubmitAsync(ctx, sid1, exampleIntent, "ISP_OUT"); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// The tenant's only slot is taken; a second session's submit sheds.
	_, err = c.SubmitAsync(ctx, sid2, exampleIntent, "ISP_OUT")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-concurrency submit = %v, want 429", err)
	}

	// Once the first update finishes, the slot frees and the tenant is
	// admitted again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = c.SubmitAsync(ctx, sid2, exampleIntent, "ISP_OUT"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never recovered its slot: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	answerPump(c, sid2, stop)
	waitIdle(t, c, sid2)
}

// waitIdle polls until the session has no in-flight update.
func waitIdle(t *testing.T, c *Client, sid string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.Session(context.Background(), sid)
		if err == nil && !info.Busy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("session never went idle")
}

// TestInteractivePreemptsBulkBacklog: a session engaged in the
// disambiguation dialogue dispatches ahead of a full bulk backlog — the
// parked-question answer path must not queue behind a bulk flood.
func TestInteractivePreemptsBulkBacklog(t *testing.T) {
	_, c := startServer(t, Options{
		Workers:   1,
		QueueSize: 16,
		NewClient: func() llm.Client { return slowLLM{inner: llm.NewSimLLM(), delay: 30 * time.Millisecond} },
	})
	ctx := context.Background()
	stop := make(chan struct{})
	defer close(stop)

	// Engage session A in the dialogue: its first update asks questions, so
	// the session is marked interactive for subsequent submits.
	sidA, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create A: %v", err)
	}
	answerPump(c, sidA, stop)
	if res, err := c.Submit(ctx, sidA, exampleIntent, "ISP_OUT"); err != nil || res.Status != StatusDone {
		t.Fatalf("warmup update = %v/%v, want done", res.Status, err)
	}

	// Saturate the single worker with a bulk backlog from other sessions.
	const bulk = 6
	var bulkSids []string
	for i := 0; i < bulk; i++ {
		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create bulk %d: %v", i, err)
		}
		answerPump(c, sid, stop)
		if _, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT"); err != nil {
			t.Fatalf("bulk submit %d: %v", i, err)
		}
		bulkSids = append(bulkSids, sid)
	}

	// Submit on the interactive session and wait for it to finish.
	u, err := c.SubmitAsync(ctx, sidA, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("interactive submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ui, err := c.Update(ctx, sidA, u.ID)
		if err != nil {
			t.Fatalf("poll interactive: %v", err)
		}
		if ui.Status == StatusDone || ui.Status == StatusFailed {
			if ui.Status != StatusDone {
				t.Fatalf("interactive update failed: %s", ui.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive update never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The interactive update jumped the line: bulk jobs submitted before it
	// must still be pending. (The worker had at most the running job plus
	// the interactive one dispatched by now.)
	pending := 0
	for _, sid := range bulkSids {
		info, err := c.Session(ctx, sid)
		if err != nil {
			t.Fatalf("bulk session info: %v", err)
		}
		if info.Busy {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("no bulk backlog remained when the interactive update finished: priority lane did not preempt")
	}
	for _, sid := range bulkSids {
		waitIdle(t, c, sid)
	}
}

// TestPoolCloseBoundedDrain: Close with an expired deadline purges the
// queued backlog — running each admitted job's drop callback — instead of
// wedging shutdown behind a saturated queue.
func TestPoolCloseBoundedDrain(t *testing.T) {
	p := newPool(1, 8, tenant.ShedConfig{Target: -1}, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	if p.Submit(tenant.DefaultTenant, 1, tenant.Bulk, func() { close(started); <-release }, nil) != "" {
		t.Fatal("blocker rejected")
	}
	<-started

	var dropped int64
	for i := 0; i < 8; i++ {
		reason := p.Submit("bulk", 1, tenant.Bulk, func() {
			t.Error("queued job ran after purge")
		}, func(r tenant.Reason) {
			if r == tenant.ReasonDrainDeadline {
				atomic.AddInt64(&dropped, 1)
			}
		})
		if reason != "" {
			t.Fatalf("queued submit %d shed: %s", i, reason)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Close(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("Close took %s, want bounded by the 50ms deadline", e)
	}
	if n := atomic.LoadInt64(&dropped); n != 8 {
		t.Fatalf("purged %d jobs with drain reason, want 8", n)
	}
	close(release)
	p.Wait()
}

// TestSnapshotPreservesTenant: a session handed off via snapshot re-binds to
// the same tenant on the successor.
func TestSnapshotPreservesTenant(t *testing.T) {
	reg := tenant.NewRegistry(tenant.RegistryConfig{Profiles: []tenant.Profile{{Name: "teamA", Weight: 2}}})
	srvA, cA := startServer(t, Options{Workers: 2, Tenants: reg})
	cA.Tenant = "teamA"
	ctx := context.Background()

	sid, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 {
		t.Fatalf("snapshotted %d sessions, want 1", len(snaps))
	}
	if snaps[0].Tenant != "teamA" {
		t.Fatalf("snapshot tenant = %q, want teamA", snaps[0].Tenant)
	}

	_, cB := startServer(t, Options{Workers: 2, Tenants: tenant.NewRegistry(tenant.RegistryConfig{})})
	if _, err := cB.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	info, err := cB.Session(ctx, sid)
	if err != nil {
		t.Fatalf("restored session info: %v", err)
	}
	if info.Tenant != "teamA" {
		t.Errorf("restored SessionInfo.Tenant = %q, want teamA", info.Tenant)
	}
}

// TestDebugSLOTenantView: /debug/slo?tenant= serves the per-tenant rings and
// 404s for tenants with no observations.
func TestDebugSLOTenantView(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	c.Tenant = "teamA"
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sid, stop)
	if res, err := c.Submit(ctx, sid, exampleIntent, "ISP_OUT"); err != nil || res.Status != StatusDone {
		t.Fatalf("submit = %v/%v, want done", res.Status, err)
	}

	resp, err := http.Get(c.BaseURL + "/debug/slo?tenant=teamA")
	if err != nil {
		t.Fatalf("GET /debug/slo?tenant=teamA: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant SLO view = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(c.BaseURL + "/debug/slo?tenant=ghost")
	if err != nil {
		t.Fatalf("GET /debug/slo?tenant=ghost: %v", err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant SLO view = %d, want 404: %s", resp.StatusCode, body)
	}
}
