package lb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/server"
)

// exampleConfig / exampleIntent mirror the server package's §2.1 walkthrough
// fixtures: the intent yields exactly two disambiguation questions against
// the simulated LLM, so every test below exercises parked Q&A through the
// balancer.
const exampleConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
`

const exampleIntent = "Write a route-map stanza that permits routes containing the prefix " +
	"100.0.0.0/16 with mask length less than or equal to 23 and tagged " +
	"with the community 300:3. Their MED value should be set to 55."

// recordingTransport captures the balancer's response headers for every
// request the client sends, so tests can assert which replica served what.
type recordingTransport struct {
	mu   sync.Mutex
	hits []recordedHit
}

type recordedHit struct {
	method, path, backend, requestID string
	status                           int
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		rt.mu.Lock()
		rt.hits = append(rt.hits, recordedHit{
			method:    req.Method,
			path:      req.URL.Path,
			backend:   resp.Header.Get(backendHeader),
			requestID: resp.Header.Get(requestIDHeader),
			status:    resp.StatusCode,
		})
		rt.mu.Unlock()
	}
	return resp, err
}

// backendsFor returns the distinct X-Clarify-Backend values seen on requests
// under the session's path.
func (rt *recordingTransport) backendsFor(sid string) map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := map[string]int{}
	for _, h := range rt.hits {
		if strings.Contains(h.path, "/v1/sessions/"+sid) {
			out[h.backend]++
		}
	}
	return out
}

func (rt *recordingTransport) count(method, pathSuffix, sid string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, h := range rt.hits {
		if h.method == method && strings.Contains(h.path, sid) && strings.HasSuffix(h.path, pathSuffix) {
			n++
		}
	}
	return n
}

// lbFleet is a balancer fronting n real clarifyd servers under httptest.
type lbFleet struct {
	lb       *LB
	lbSrv    *httptest.Server
	backends map[string]*server.Server // name (host:port) -> daemon
}

func fastProbeOpts() Options {
	return Options{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	}
}

func startLBFleet(t *testing.T, n int, opts Options) *lbFleet {
	t.Helper()
	return startLBFleetWith(t, n, opts, server.Options{Workers: 2})
}

// startLBFleetWith is startLBFleet with explicit replica options (tiny idle
// TTLs, snapshot knobs).
func startLBFleetWith(t *testing.T, n int, opts Options, srvOpts server.Options) *lbFleet {
	t.Helper()
	f := &lbFleet{backends: map[string]*server.Server{}}
	for i := 0; i < n; i++ {
		srv := server.New(srvOpts)
		hs := httptest.NewServer(srv)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			hs.Close()
		})
		f.backends[strings.TrimPrefix(hs.URL, "http://")] = srv
		opts.Backends = append(opts.Backends, hs.URL)
	}
	l, err := New(opts)
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	f.lb = l
	f.lbSrv = httptest.NewServer(l)
	t.Cleanup(func() {
		f.lbSrv.Close()
		l.Close()
	})
	return f
}

func (f *lbFleet) client(rt http.RoundTripper) *server.Client {
	hc := &http.Client{Timeout: 30 * time.Second, Transport: rt}
	return &server.Client{BaseURL: f.lbSrv.URL, HTTP: hc, PollInterval: 2 * time.Millisecond}
}

// pendingQuestion reads GET …/question through c's transport: the session's
// pending question, or nil when it has none.
func pendingQuestion(ctx context.Context, c *server.Client, sid string) (*server.Question, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/sessions/"+sid+"/question", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET question: %s", resp.Status)
	}
	var out server.QuestionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Question, nil
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (f *lbFleet) snapshotOf(t *testing.T, name string) BackendSnapshot {
	t.Helper()
	for _, s := range f.lb.Backends() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no backend named %s", name)
	return BackendSnapshot{}
}

// TestSessionAffinityEndToEnd is the acceptance check: with two replicas
// behind the balancer, every request of a session — update submit, question
// polls, answers — lands on the replica that created it, asserted via the
// X-Clarify-Backend header on each proxied response.
func TestSessionAffinityEndToEnd(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q server.Question) (int, error) {
			return 1, nil
		})
		if err != nil {
			t.Fatalf("run update %d: %v", i, err)
		}
		if res.Status != server.StatusDone || res.Result == nil || res.Result.Questions != 2 {
			t.Fatalf("update %d did not complete the walkthrough: %+v", i, res)
		}

		seen := rt.backendsFor(sid)
		if len(seen) != 1 {
			t.Fatalf("session %s was served by %d backends (%v), want exactly 1", sid, len(seen), seen)
		}
		pin := f.lb.affinity.Get(sid)
		if pin == nil {
			t.Fatalf("session %s has no affinity pin", sid)
		}
		for name := range seen {
			if name != pin.Name {
				t.Fatalf("session %s served by %s but pinned to %s", sid, name, pin.Name)
			}
		}
		if rt.count(http.MethodPost, "/answer", sid) < 2 {
			t.Fatalf("session %s: want >=2 proxied answers, got %d",
				sid, rt.count(http.MethodPost, "/answer", sid))
		}
	}
}

// TestCreatePlacementSpreads verifies new sessions land on more than one
// replica: the two random draws must not collapse onto a single backend.
func TestCreatePlacementSpreads(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	c := f.client(nil)
	ctx := context.Background()

	const n = 16
	for i := 0; i < n; i++ {
		if _, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if got := f.lb.affinity.Len(); got != n {
		t.Fatalf("affinity pins = %d, want %d", got, n)
	}
	var total int64
	for _, s := range f.lb.Backends() {
		if s.CreatesRouted == 0 {
			t.Errorf("backend %s received zero of %d creates: placement collapsed", s.Name, n)
		}
		total += s.CreatesRouted
	}
	if total != n {
		t.Fatalf("creates routed = %d, want %d", total, n)
	}
}

// TestDrainFinishesParkedSessions is the graceful-drain e2e: a replica with
// a parked question enters Shutdown; the balancer sees "draining" on the
// probe, keeps routing the session's Q&A there until the update finishes,
// and places every new session on the survivor.
func TestDrainFinishesParkedSessions(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	pin := f.lb.affinity.Get(sid)
	if pin == nil {
		t.Fatal("no affinity pin after create")
	}
	var other string
	for name := range f.backends {
		if name != pin.Name {
			other = name
		}
	}

	// Park an update on its first disambiguation question.
	up, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit async: %v", err)
	}
	var q *server.Question
	waitFor(t, 5*time.Second, "parked question", func() bool {
		q, err = pendingQuestion(ctx, c, sid)
		return err == nil && q != nil
	})

	// Drain the replica holding the session while the question is parked.
	drainDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- f.backends[pin.Name].Shutdown(sctx)
	}()
	waitFor(t, 5*time.Second, "probe to observe draining", func() bool {
		s := f.snapshotOf(t, pin.Name)
		return s.Draining && s.State == StateAdmitted
	})

	// New sessions must all land on the survivor.
	for i := 0; i < 4; i++ {
		sid2, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create during drain: %v", err)
		}
		if pin2 := f.lb.affinity.Get(sid2); pin2 == nil || pin2.Name != other {
			t.Fatalf("session created during drain pinned to %v, want survivor %s", pin2, other)
		}
	}

	// The parked Q&A still flows through the balancer to the draining
	// replica; answering both questions completes the update.
	pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
	defer pcancel()
	if res, err := c.PollUpdate(pctx, sid, up.ID, func(server.Question) (int, error) { return 1, nil }); err != nil || res.Status != server.StatusDone {
		t.Fatalf("drained update = %+v, %v; want done", res, err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}

	// Every request of the drained session was served by its replica.
	for name, n := range rt.backendsFor(sid) {
		if name != pin.Name {
			t.Fatalf("%d requests of draining session served by %s, want %s", n, name, pin.Name)
		}
	}
}

// TestListMergesAcrossBackends checks GET /v1/sessions through the balancer
// is the fleet-wide union.
func TestListMergesAcrossBackends(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	c := f.client(nil)
	ctx := context.Background()

	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		want[sid] = true
	}
	resp, err := http.Get(f.lbSrv.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	defer resp.Body.Close()
	var infos []server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	got := map[string]bool{}
	for _, si := range infos {
		got[si.ID] = true
	}
	for sid := range want {
		if !got[sid] {
			t.Errorf("session %s missing from merged listing", sid)
		}
	}
}

// TestRequestIDHeaders checks X-Request-Id passthrough and generation on
// proxied responses.
func TestRequestIDHeaders(t *testing.T) {
	f := startLBFleet(t, 1, fastProbeOpts())

	body := func() *bytes.Reader {
		data, _ := json.Marshal(server.CreateSessionRequest{Config: exampleConfig})
		return bytes.NewReader(data)
	}

	req, _ := http.NewRequest(http.MethodPost, f.lbSrv.URL+"/v1/sessions", body())
	req.Header.Set(requestIDHeader, "rid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "rid-test-42" {
		t.Fatalf("X-Request-Id = %q, want the caller's rid-test-42", got)
	}
	if resp.Header.Get(backendHeader) == "" {
		t.Fatal("proxied response missing X-Clarify-Backend")
	}

	resp2, err := http.Post(f.lbSrv.URL+"/v1/sessions", "application/json", body())
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	resp2.Body.Close()
	if rid := resp2.Header.Get(requestIDHeader); len(rid) != 32 {
		t.Fatalf("minted X-Request-Id = %q, want a 32-hex trace ID", rid)
	}
}

// TestBalancerHealthAndMetrics exercises the balancer's own endpoints.
func TestBalancerHealthAndMetrics(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	c := f.client(nil)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig}); err != nil {
		t.Fatalf("create: %v", err)
	}

	resp, err := http.Get(f.lbSrv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status   string `json:"status"`
		Backends int    `json:"backends"`
		Admitted int    `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Backends != 2 {
		t.Fatalf("healthz = %d %+v, want 200 ok with 2 backends", resp.StatusCode, health)
	}

	resp, err = http.Get(f.lbSrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	resp.Body.Close()
	if len(snap.Backends) != 2 || snap.Proxied == 0 {
		t.Fatalf("metrics snapshot off: backends=%d proxied=%d", len(snap.Backends), snap.Proxied)
	}

	resp, err = http.Get(f.lbSrv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("prometheus metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, series := range []string{
		"clarify_lb_proxied_total",
		"clarify_lb_backend_up{backend=",
		"clarify_lb_backend_request_duration_ms_bucket",
		"clarify_lb_probe_rounds_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("prometheus exposition missing %q", series)
		}
	}
}

// --- stub-backed state machine tests ---

// stubDaemon fakes just enough of clarifyd for prober and routing tests:
// a controllable /readyz and a session-create endpoint.
type stubDaemon struct {
	healthy  atomic.Bool
	draining atomic.Bool
	creates  atomic.Int64
}

func (s *stubDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/readyz":
		h := server.HealthStatus{Status: "ready"}
		code := http.StatusOK
		switch {
		case s.draining.Load():
			h.Status, h.Draining, code = "draining", true, http.StatusServiceUnavailable
		case !s.healthy.Load():
			h.Status, code = "unready", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(h)
	case r.URL.Path == "/v1/sessions" && r.Method == http.MethodPost:
		n := s.creates.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(server.CreateSessionResponse{ID: fmt.Sprintf("stub-%p-%d", s, n)})
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}
}

func startStubFleet(t *testing.T, n int) (*LB, *httptest.Server, []*stubDaemon, []string) {
	t.Helper()
	opts := fastProbeOpts()
	var stubs []*stubDaemon
	var names []string
	for i := 0; i < n; i++ {
		sd := &stubDaemon{}
		sd.healthy.Store(true)
		hs := httptest.NewServer(sd)
		t.Cleanup(hs.Close)
		stubs = append(stubs, sd)
		names = append(names, strings.TrimPrefix(hs.URL, "http://"))
		opts.Backends = append(opts.Backends, hs.URL)
	}
	l, err := New(opts)
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	ls := httptest.NewServer(l)
	t.Cleanup(func() {
		ls.Close()
		l.Close()
	})
	return l, ls, stubs, names
}

func createVia(t *testing.T, lbURL string) (sid, backend string) {
	t.Helper()
	resp, err := http.Post(lbURL+"/v1/sessions", "application/json",
		strings.NewReader(`{"config":"x"}`))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer resp.Body.Close()
	var created server.CreateSessionResponse
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatalf("decode create: %v", err)
	}
	return created.ID, resp.Header.Get(backendHeader)
}

// TestEjectionAndReadmission drives the full probe state machine: a backend
// failing EjectAfter consecutive probes leaves the rotation (creates flow to
// the survivor), then ReadmitAfter consecutive successes restore it.
func TestEjectionAndReadmission(t *testing.T) {
	l, ls, stubs, names := startStubFleet(t, 2)

	waitFor(t, 5*time.Second, "first probe round", func() bool {
		return l.prober.probes.Load() >= 1
	})

	stubs[1].healthy.Store(false)
	waitFor(t, 5*time.Second, "ejection of "+names[1], func() bool {
		for _, s := range l.Backends() {
			if s.Name == names[1] {
				return s.State == StateEjected
			}
		}
		return false
	})

	for i := 0; i < 6; i++ {
		_, backend := createVia(t, ls.URL)
		if backend != names[0] {
			t.Fatalf("create %d placed on %s; only %s is admitted", i, backend, names[0])
		}
	}

	stubs[1].healthy.Store(true)
	waitFor(t, 5*time.Second, "re-admission of "+names[1], func() bool {
		for _, s := range l.Backends() {
			if s.Name == names[1] {
				return s.State == StateAdmitted
			}
		}
		return false
	})
	for _, s := range l.Backends() {
		if s.Name == names[1] {
			if s.Ejections != 1 || s.Readmissions != 1 {
				t.Fatalf("backend %s: ejections=%d readmissions=%d, want 1 and 1",
					s.Name, s.Ejections, s.Readmissions)
			}
		}
	}
}

// TestPinnedBackendEjectedReturns503 checks a session whose replica is inside
// an ejection window gets a retryable 503 naming the replica — never a
// silent reroute to a replica that has no idea the session exists.
func TestPinnedBackendEjectedReturns503(t *testing.T) {
	l, ls, stubs, names := startStubFleet(t, 2)

	sid, backend := createVia(t, ls.URL)
	var pinned *stubDaemon
	for i, name := range names {
		if name == backend {
			pinned = stubs[i]
		}
	}
	if pinned == nil {
		t.Fatalf("create served by unknown backend %q", backend)
	}

	pinned.healthy.Store(false)
	waitFor(t, 5*time.Second, "ejection of the pinned backend", func() bool {
		b := l.affinity.Get(sid)
		return b != nil && !b.Admitted()
	})

	resp, err := http.Get(ls.URL + "/v1/sessions/" + sid)
	if err != nil {
		t.Fatalf("get session: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while the pinned backend is ejected", resp.StatusCode)
	}
	if got := resp.Header.Get(backendHeader); got != backend {
		t.Fatalf("X-Clarify-Backend = %q, want the ejected %q", got, backend)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for an ejected pin must carry Retry-After")
	}
}

// TestNoBackendsLeft checks the balancer's 503 behavior once every backend
// is ejected: healthz goes unhealthy and creates are refused.
func TestNoBackendsLeft(t *testing.T) {
	l, ls, stubs, _ := startStubFleet(t, 2)
	for _, sd := range stubs {
		sd.healthy.Store(false)
	}
	waitFor(t, 5*time.Second, "everything ejected", func() bool {
		for _, s := range l.Backends() {
			if s.State != StateEjected {
				return false
			}
		}
		return true
	})

	resp, err := http.Get(ls.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with no admitted backends, want 503", resp.StatusCode)
	}

	resp, err = http.Post(ls.URL+"/v1/sessions", "application/json", strings.NewReader(`{"config":"x"}`))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create = %d with no admitted backends, want 503", resp.StatusCode)
	}

	// A session with no pin has no replica to be looked up on.
	resp, err = http.Get(ls.URL + "/v1/sessions/s1/question")
	if err != nil {
		t.Fatalf("get session: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("unpinned session = %d (Retry-After %q) with no admitted backends, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestDrainingBackendGetsNoCreates checks the drain half of the probe
// classification without a real daemon: a 503 "draining" readyz is a probe
// success that only removes the backend from placement.
func TestDrainingBackendGetsNoCreates(t *testing.T) {
	l, ls, stubs, names := startStubFleet(t, 2)
	stubs[1].draining.Store(true)
	waitFor(t, 5*time.Second, "probe to observe draining", func() bool {
		for _, s := range l.Backends() {
			if s.Name == names[1] {
				return s.Draining && s.State == StateAdmitted
			}
		}
		return false
	})
	for i := 0; i < 6; i++ {
		if _, backend := createVia(t, ls.URL); backend != names[0] {
			t.Fatalf("create %d placed on draining %s", i, backend)
		}
	}
}

// TestRestoreRePinsAffinity is the handoff e2e through the balancer: a
// replica drains with a parked question, snapshots the session, and the
// snapshot is PUT back through the LB — which places it on the survivor and
// pins the session there, so the client's next poll finds the same question
// on the new replica.
func TestRestoreRePinsAffinity(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	pin := f.lb.affinity.Get(sid)
	if pin == nil {
		t.Fatal("no affinity pin after create")
	}
	owner := f.backends[pin.Name]
	var survivor string
	for name := range f.backends {
		if name != pin.Name {
			survivor = name
		}
	}

	up, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit async: %v", err)
	}
	var parked *server.Question
	waitFor(t, 5*time.Second, "parked question", func() bool {
		parked, err = pendingQuestion(ctx, c, sid)
		return err == nil && parked != nil
	})

	// Handoff time on the owner: drain to quiescence and capture the session.
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := owner.DrainForHandoff(dctx); err != nil {
		t.Fatalf("DrainForHandoff: %v", err)
	}
	snaps := owner.SnapshotSessions(pin.Name)
	if len(snaps) != 1 || snaps[0].ID != sid || snaps[0].Pending == nil {
		t.Fatalf("snapshot = %+v, want the one parked session", snaps)
	}
	// The probe must see the owner draining before the restore, or the LB
	// could place the session right back on it.
	waitFor(t, 5*time.Second, "probe to observe draining", func() bool {
		return f.snapshotOf(t, pin.Name).Draining
	})

	if _, err := c.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore through the balancer: %v", err)
	}
	pin2 := f.lb.affinity.Get(sid)
	if pin2 == nil || pin2.Name != survivor {
		t.Fatalf("post-restore pin = %v, want survivor %s", pin2, survivor)
	}
	if got := f.lb.restored.Load(); got != 1 {
		t.Fatalf("restored counter = %d, want 1", got)
	}

	// The client's next poll, through the balancer, must find the same
	// question on the survivor — and answering there finishes the update.
	var q2 *server.Question
	waitFor(t, 5*time.Second, "re-parked question on the survivor", func() bool {
		q2, err = pendingQuestion(ctx, c, sid)
		return err == nil && q2 != nil
	})
	if q2.Seq != parked.Seq || q2.Text != parked.Text {
		t.Fatalf("restored question = seq %d %q, want seq %d %q", q2.Seq, q2.Text, parked.Seq, parked.Text)
	}
	res, err := c.PollUpdate(ctx, sid, up.ID, func(server.Question) (int, error) { return 1, nil })
	if err != nil || res.Status != server.StatusDone {
		t.Fatalf("restored update = %+v, %v, want done", res, err)
	}
	for name := range rt.backendsFor(sid) {
		if name != pin.Name && name != survivor {
			t.Fatalf("session touched unexpected backend %s", name)
		}
	}

	// Unpark the owner's copy so its shutdown in cleanup is prompt.
	oc := &server.Client{BaseURL: "http://" + pin.Name, PollInterval: 2 * time.Millisecond}
	if _, err := oc.PollUpdate(ctx, sid, up.ID, func(server.Question) (int, error) { return 1, nil }); err != nil {
		t.Fatalf("finish owner's parked update: %v", err)
	}
}

// TestGoneClearsAffinityPin: a backend answering 410 for a session proves
// the pin stale — the balancer must drop it (and count the drop), so a
// later restore can repin cleanly instead of routing to the grave.
func TestGoneClearsAffinityPin(t *testing.T) {
	f := startLBFleetWith(t, 1, fastProbeOpts(), server.Options{
		Workers:       2,
		IdleTTL:       40 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	c := f.client(nil)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	if f.lb.affinity.Get(sid) == nil {
		t.Fatal("no affinity pin after create")
	}

	// The janitor evicts the idle session; the proxied poll sees 410 Gone
	// and the pin dies with it. Every GET touches the session's idle clock,
	// so the probe must pause longer than the TTL between polls or it keeps
	// the session alive forever.
	cleared := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(75 * time.Millisecond)
		_, err := c.Session(ctx, sid)
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone && f.lb.affinity.Get(sid) == nil {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("timed out waiting for 410 Gone to clear the pin")
	}
	if got := f.lb.gonePins.Load(); got != 1 {
		t.Fatalf("gonePins counter = %d, want 1", got)
	}
}

// TestPlacementFailsOverDrainingBackend: a create landing on a replica that
// started draining after the last probe round must not bounce the 503 to
// the client — placement strikes the drained replica and retries the
// next-best backend. With slow probes the balancer's admission state never
// learns about the drain, so every create exercises the failover path.
func TestPlacementFailsOverDrainingBackend(t *testing.T) {
	f := startLBFleetWith(t, 2, Options{
		ProbeInterval: time.Hour, // prober never observes the drain
		ProbeTimeout:  500 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	}, server.Options{Workers: 2})
	c := f.client(nil)
	ctx := context.Background()

	var drained *server.Server
	for _, srv := range f.backends {
		drained = srv
		break
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := drained.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Two-choice placement would route roughly half of these to the
	// draining replica; every one must land on the survivor instead.
	for i := 0; i < 10; i++ {
		sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create %d through draining fleet: %v", i, err)
		}
		if f.lb.affinity.Get(sid) == nil {
			t.Fatalf("create %d: no pin", i)
		}
	}
}

// TestFanOutsCountBackendRequests checks that the session listing counts
// exactly one request on every admitted backend.
func TestFanOutsCountBackendRequests(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	before := map[string]int64{}
	for _, s := range f.lb.Backends() {
		if s.State == StateAdmitted {
			before[s.Name] = s.Requests
		}
	}
	if len(before) != 2 {
		t.Fatalf("%d admitted backends, want 2", len(before))
	}
	resp, err := http.Get(f.lbSrv.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("GET /v1/sessions: %v", err)
	}
	resp.Body.Close()
	for name, n := range before {
		if got := f.snapshotOf(t, name).Requests; got != n+1 {
			t.Errorf("backend %s requests %d -> %d, want +1", name, n, got)
		}
	}
}

// TestLBRecordsShedsPerBackend fills a one-worker, one-slot replica behind
// the balancer until it sheds a submit with 429, then asserts the shed is
// relayed to the client with Retry-After and the replica's ErrorResponse
// body, counted on the backend's Sheds counter, and exported as the
// clarify_lb_backend_sheds_total Prometheus series.
func TestLBRecordsShedsPerBackend(t *testing.T) {
	f := startLBFleetWith(t, 1, fastProbeOpts(),
		server.Options{Workers: 1, QueueSize: 1, QuestionTimeout: 30 * time.Second})
	ctx := context.Background()
	c := f.client(nil)
	var sids []string
	for i := 0; i < 3; i++ {
		sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		sids = append(sids, sid)
	}

	// The first update holds the only worker, parked on its question; the
	// second fills the only queue slot.
	var updates []server.UpdateInfo
	u, err := c.SubmitAsync(ctx, sids[0], exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	updates = append(updates, u)
	waitFor(t, 5*time.Second, "parked question", func() bool {
		q, err := pendingQuestion(ctx, c, sids[0])
		return err == nil && q != nil
	})
	if u, err = c.SubmitAsync(ctx, sids[1], exampleIntent, "ISP_OUT"); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	updates = append(updates, u)

	// The third submit must be shed by the replica and relayed verbatim.
	body, _ := json.Marshal(server.SubmitRequest{Intent: exampleIntent, Target: "ISP_OUT"})
	resp, err := http.Post(f.lbSrv.URL+"/v1/sessions/"+sids[2]+"/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	var shed server.ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&shed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if derr != nil || shed.Reason != "queue_full" || shed.RetryAfterSeconds != 1 || shed.Error == "" {
		t.Errorf("shed body = %+v (%v), want a queue_full ErrorResponse with retryAfterSeconds 1", shed, derr)
	}

	// The balancer counted the shed against the one backend.
	snap := f.lb.snapshot()
	if len(snap.Backends) != 1 || snap.Backends[0].Sheds != 1 {
		t.Errorf("backend sheds = %+v, want one backend with 1 shed", snap.Backends)
	}
	mresp, err := http.Get(f.lbSrv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var text bytes.Buffer
	text.ReadFrom(mresp.Body)
	mresp.Body.Close()
	want := fmt.Sprintf("clarify_lb_backend_sheds_total{backend=%q} 1", snap.Backends[0].Name)
	if !strings.Contains(text.String(), want) {
		t.Errorf("/metrics missing %s", want)
	}

	// Answer both admitted updates so they finish before the harness shuts
	// the replica down.
	for i, u := range updates {
		done, err := c.PollUpdate(ctx, sids[i], u.ID, func(server.Question) (int, error) { return 1, nil })
		if err != nil || done.Status != server.StatusDone {
			t.Fatalf("admitted update %d = %+v, %v; want done", i, done, err)
		}
	}
}

// TestBackendConnectionsReused: with no Options.Transport the balancer
// keeps its backend connections open between requests. Eight clients send
// 50 GETs each through the balancer to one backend that holds every reply
// 2 ms, so eight requests at a time are in flight to it; the backend may
// accept one connection per client plus the prober's, not one per request.
// The backend holds the first requests until all eight have arrived, so no
// reply frees a connection while the balancer is still dialling the first
// eight: a request that took the freed one would leave a spare.
func TestBackendConnectionsReused(t *testing.T) {
	const clients, requests = 8, 50
	var accepted, arrived atomic.Int64
	allIn := make(chan struct{})
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/readyz" {
			json.NewEncoder(w).Encode(server.HealthStatus{Status: "ready"})
			return
		}
		if n := arrived.Add(1); n <= clients {
			if n == clients {
				close(allIn)
			}
			select {
			case <-allIn:
			case <-time.After(5 * time.Second):
			}
		}
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()
	l, err := New(Options{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	front := httptest.NewServer(l)
	defer func() {
		front.Close()
		l.Close()
	}()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < requests; j++ {
				resp, err := hc.Get(fmt.Sprintf("%s/v1/sessions/s%d/updates/u%d", front.URL, i, j))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET through the balancer: %s", resp.Status)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := accepted.Load(); n > clients+1 {
		t.Errorf("backend accepted %d connections for %d requests, want at most %d", n, clients*requests, clients+1)
	}
}

// TestForwardFraming: the balancer relays each request body whole, framed
// by its length. A create, a submit and an answer (sent to the balancer
// chunked) reach the backend with a Content-Length equal to the body and no
// Transfer-Encoding, and a GET and a DELETE with no body. A reply over
// 2 KiB, which the backend sends chunked, reaches the client with its
// Content-Length. A header that a message's Connection header names is
// dropped in both directions. A body over 32 MiB, declared or chunked, is
// answered 413 and never reaches the backend.
func TestForwardFraming(t *testing.T) {
	type arrival struct {
		method, path, body, secret string
		length                     int64
		te                         []string
	}
	var mu sync.Mutex
	var arrivals []arrival
	reply := strings.Repeat("x", 3<<10)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			json.NewEncoder(w).Encode(server.HealthStatus{Status: "ready"})
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("%s %s: read body: %v", r.Method, r.URL.Path, err)
		}
		mu.Lock()
		arrivals = append(arrivals, arrival{r.Method, r.URL.Path, string(body), r.Header.Get("X-Secret"),
			r.ContentLength, r.TransferEncoding})
		mu.Unlock()
		w.Header().Set("Connection", "X-Backend-Secret")
		w.Header().Set("X-Backend-Secret", "1")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"s1"}`))
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		case r.URL.Path == "/v1/sessions/s1/config":
			w.(http.Flusher).Flush() // headers without a length: the reply goes chunked
			w.Write([]byte(reply))
		default:
			w.Write([]byte("{}"))
		}
	}))
	defer backend.Close()
	l, err := New(Options{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	front := httptest.NewServer(l)
	defer func() {
		front.Close()
		l.Close()
	}()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	// send relays one request through the balancer and returns the reply
	// with its body read. A nil body sends none; chunked hides its length.
	send := func(method, path string, body io.Reader, length int64, hdr http.Header) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, front.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = length
		for k, vv := range hdr {
			req.Header[k] = vv
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read reply: %v", method, path, err)
		}
		if resp.Header.Get("X-Backend-Secret") != "" {
			t.Errorf("%s %s: the reply carries X-Backend-Secret, which the backend's Connection header names", method, path)
		}
		return resp, data
	}
	secret := http.Header{"Connection": {"X-Secret"}, "X-Secret": {"1"}}
	requests := []struct {
		method, path, body string
		chunked            bool
		status             int
	}{
		{http.MethodPost, "/v1/sessions", `{"config":"x"}`, false, http.StatusCreated},
		{http.MethodPost, "/v1/sessions/s1/updates?after=0", `{"intent":"i","target":"T"}`, false, http.StatusOK},
		{http.MethodPost, "/v1/sessions/s1/answer", `{"seq":1,"option":1}`, true, http.StatusOK},
		{http.MethodGet, "/v1/sessions/s1/updates/u1?after=1", "", false, http.StatusOK},
		{http.MethodGet, "/v1/sessions/s1/config", "", false, http.StatusOK},
		{http.MethodDelete, "/v1/sessions/s1", "", false, http.StatusNoContent},
	}
	for _, rq := range requests {
		var body io.Reader
		length := int64(len(rq.body))
		if rq.body != "" {
			body = strings.NewReader(rq.body)
		}
		if rq.chunked {
			body, length = struct{ io.Reader }{body}, -1
		}
		resp, data := send(rq.method, rq.path, body, length, secret)
		if resp.StatusCode != rq.status {
			t.Fatalf("%s %s: status %d (%s), want %d", rq.method, rq.path, resp.StatusCode, data, rq.status)
		}
		if rq.path == "/v1/sessions/s1/config" &&
			(resp.ContentLength != int64(len(reply)) || len(resp.TransferEncoding) > 0 || string(data) != reply) {
			t.Errorf("the %d-byte reply reached the client with Content-Length %d, Transfer-Encoding %v and %d bytes",
				len(reply), resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
	mu.Lock()
	got := append([]arrival(nil), arrivals...)
	mu.Unlock()
	if len(got) != len(requests) {
		t.Fatalf("backend saw %d requests, want %d: %+v", len(got), len(requests), got)
	}
	for i, a := range got {
		rq := requests[i]
		if a.length != int64(len(rq.body)) || len(a.te) > 0 || a.body != rq.body {
			t.Errorf("%s %s arrived with Content-Length %d, Transfer-Encoding %v and body %q; want %d and %q, unchunked",
				a.method, a.path, a.length, a.te, a.body, len(rq.body), rq.body)
		}
		if a.secret != "" {
			t.Errorf("%s %s arrived with X-Secret, which the client's Connection header names", a.method, a.path)
		}
	}

	for _, path := range []string{"/v1/sessions", "/v1/sessions/s1/updates"} {
		for _, chunked := range []bool{false, true} {
			length := int64(maxBody + 1)
			var body io.Reader = io.LimitReader(zeros{}, length)
			if chunked {
				body, length = struct{ io.Reader }{body}, -1
			}
			resp, data := send(http.MethodPost, path, body, length, nil)
			var e server.ErrorResponse
			if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(data, &e) != nil ||
				!strings.Contains(e.Error, fmt.Sprint(maxBody)) {
				t.Errorf("POST %s with %d bytes (chunked %v): %d %q; want 413 naming the %d-byte bound",
					path, maxBody+1, chunked, resp.StatusCode, data, maxBody)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range arrivals[len(requests):] {
		t.Errorf("%s %s reached the backend with %d bytes", a.method, a.path, len(a.body))
	}
}

// zeros reads an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
