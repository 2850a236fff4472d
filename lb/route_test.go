package lb

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clarifynet/clarify/server"
)

// sentTransport is a balancer's Options.Transport that records every
// request the balancer sends to a backend.
type sentTransport struct {
	mu   sync.Mutex
	sent []sentRequest
}

// sentRequest is one request a balancer sent; relayed marks a client's
// request, which carries X-Request-Id, against the balancer's own lookups.
type sentRequest struct {
	method, backend, path string
	relayed               bool
}

func (st *sentTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st.mu.Lock()
	st.sent = append(st.sent, sentRequest{req.Method, req.URL.Host, req.URL.Path, req.Header.Get(requestIDHeader) != ""})
	st.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// under returns the requests sent for the session sid, in order.
func (st *sentTransport) under(sid string) []sentRequest {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []sentRequest
	for _, r := range st.sent {
		if r.path == "/v1/sessions/"+sid || strings.HasPrefix(r.path, "/v1/sessions/"+sid+"/") {
			out = append(out, r)
		}
	}
	return out
}

// TestRestartedBalancerFindsSessions: a balancer that did not place a
// session (it restarted, or another balancer over the same fleet placed it)
// finds the session by asking the replicas. Sessions created through one
// balancer, each parked on a question, are answered and finished through a
// second one, one goroutine per session; then half are deleted and the
// other half left for their replica to evict, so deletes and 410s clear
// pins while other handlers' lookups set them. Every request must reach
// the replica holding its session, and the second balancer must pin each
// session after one lookup.
func TestRestartedBalancerFindsSessions(t *testing.T) {
	const n = 10
	// A parked session is busy, so only a finished one can be evicted.
	const idleTTL = 200 * time.Millisecond
	f := startLBFleetWith(t, 2, fastProbeOpts(), server.Options{
		Workers:       n,
		IdleTTL:       idleTTL,
		SweepInterval: 10 * time.Millisecond,
	})
	ctx := context.Background()
	c1 := f.client(nil)
	type parked struct{ sid, uid, owner string }
	sessions := make([]parked, n)
	for i := range sessions {
		sid, err := c1.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		up, err := c1.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitFor(t, 5*time.Second, "parked question", func() bool {
			q, err := c1.Question(ctx, sid)
			return err == nil && q != nil
		})
		sessions[i] = parked{sid, up.ID, f.lb.affinity.Get(sid).Name}
	}

	sent := &sentTransport{}
	opts := fastProbeOpts()
	opts.Backends, opts.Transport = f.lb.opts.Backends, sent
	l2, err := New(opts)
	if err != nil {
		t.Fatalf("second lb.New: %v", err)
	}
	front := httptest.NewServer(l2)
	t.Cleanup(func() {
		front.Close()
		l2.Close()
	})
	c2 := &server.Client{BaseURL: front.URL, HTTP: &http.Client{Timeout: 30 * time.Second}, PollInterval: 2 * time.Millisecond}

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(evict bool, s parked) {
			defer wg.Done()
			res, err := c2.PollUpdate(ctx, s.sid, s.uid, func(server.Question) (int, error) { return 1, nil })
			if err != nil || res.Status != server.StatusDone {
				t.Errorf("session %s through the second balancer = %+v, %v; want done", s.sid, res, err)
				return
			}
			if !evict {
				if err := c2.DeleteSession(ctx, s.sid); err != nil {
					t.Errorf("delete %s through the second balancer: %v", s.sid, err)
				}
				return
			}
			// Every GET touches the session's idle clock, so pause longer
			// than the TTL between polls.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				time.Sleep(idleTTL + 50*time.Millisecond)
				_, err := c2.Session(ctx, s.sid)
				var apiErr *server.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone {
					return
				}
			}
			t.Errorf("session %s: no 410 after its replica's idle TTL", s.sid)
		}(i%2 == 1, s)
	}
	wg.Wait()

	for _, s := range sessions {
		lookups := 0
		for _, r := range sent.under(s.sid) {
			switch {
			case !r.relayed:
				lookups++
			case r.backend != s.owner:
				t.Errorf("%s %s went to %s; the session is on %s", r.method, r.path, r.backend, s.owner)
			}
		}
		if lookups < 1 || lookups > len(opts.Backends) {
			t.Errorf("session %s: %d lookup requests, want one lookup of at most one per replica", s.sid, lookups)
		}
	}
	if got := l2.affinity.Misses(); got != n {
		t.Errorf("the second balancer found no pin %d times, want once per session (%d)", got, n)
	}
	if got := l2.affinity.Len(); got != 0 {
		t.Errorf("%d pins left after every session was deleted or evicted", got)
	}
	if got := l2.gonePins.Load(); got != n/2 {
		t.Errorf("%d pins cleared by 410 Gone, want one per evicted session (%d)", got, n/2)
	}
}

// TestLookupUnpinnedSession: a session with no pin is looked up on the
// admitted replicas only. An ID none of them holds gets the balancer's 404
// after one GET per admitted replica, and an ID a replica buried gets that
// replica's own 410, with no pin left behind.
func TestLookupUnpinnedSession(t *testing.T) {
	sent := &sentTransport{}
	// One probe round, at start: the ejection set below stands.
	opts := Options{ProbeInterval: time.Hour, Transport: sent}
	f := startLBFleetWith(t, 3, opts, server.Options{
		Workers:       1,
		IdleTTL:       40 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	backends := f.lb.backends
	setEjected(backends[2], true)

	resp, err := http.Get(f.lbSrv.URL + "/v1/sessions/nobody/config")
	if err != nil {
		t.Fatalf("get unknown session: %v", err)
	}
	var e server.ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || derr != nil || e.Error == "" {
		t.Fatalf("unknown session = %d %+v (%v), want 404 with an ErrorResponse", resp.StatusCode, e, derr)
	}
	asked := map[string]int{}
	for _, r := range sent.under("nobody") {
		if r.relayed || r.method != http.MethodGet || r.path != "/v1/sessions/nobody" {
			t.Errorf("%s %s reached %s for a session no replica holds", r.method, r.path, r.backend)
		}
		asked[r.backend]++
	}
	if asked[backends[0].Name] != 1 || asked[backends[1].Name] != 1 || len(asked) != 2 {
		t.Errorf("lookups per backend = %v, want one on each of %s and %s and none on the ejected %s",
			asked, backends[0].Name, backends[1].Name, backends[2].Name)
	}

	// A session placed on backends[1] behind the balancer's back, then
	// evicted. Every GET touches its idle clock, so pause longer than the
	// TTL between polls.
	ctx := context.Background()
	direct := &server.Client{BaseURL: backends[1].URL.String()}
	sid, err := direct.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create on the replica: %v", err)
	}
	buried := false
	for deadline := time.Now().Add(5 * time.Second); !buried && time.Now().Before(deadline); {
		time.Sleep(75 * time.Millisecond)
		_, err := direct.Session(ctx, sid)
		var apiErr *server.APIError
		buried = errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone
	}
	if !buried {
		t.Fatal("timed out waiting for the replica to evict the session")
	}
	resp, err = http.Get(f.lbSrv.URL + "/v1/sessions/" + sid + "/stats")
	if err != nil {
		t.Fatalf("get buried session: %v", err)
	}
	e = server.ErrorResponse{}
	derr = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || derr != nil || e.Reason != server.ReasonEvicted {
		t.Fatalf("buried session = %d %+v (%v), want 410 with reason %q", resp.StatusCode, e, derr, server.ReasonEvicted)
	}
	if got := resp.Header.Get(backendHeader); got != backends[1].Name {
		t.Errorf("410 from %q, want the replica that buried the session, %s", got, backends[1].Name)
	}
	if n := f.lb.affinity.Len(); n != 0 {
		t.Errorf("%d pins after lookups that found no live session, want 0", n)
	}
}

// stubBackend serves one fixed handler behind a balancer: a 200 "{}" for
// /readyz and for session lookups, and handle for everything else.
func stubBackend(t *testing.T, handle http.HandlerFunc) *httptest.Server {
	t.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/v1/sessions/s1" {
			w.Write([]byte("{}"))
			return
		}
		handle(w, r)
	}))
	t.Cleanup(backend.Close)
	return backend
}

// frontOf starts a balancer over backends and serves it.
func frontOf(t *testing.T, backends ...string) *httptest.Server {
	t.Helper()
	l, err := New(Options{Backends: backends})
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	front := httptest.NewServer(l)
	t.Cleanup(func() {
		front.Close()
		l.Close()
	})
	return front
}

// TestRedirectRelayed: a backend's redirect reaches the client as the
// backend sent it, with its Location; the balancer does not follow it.
func TestRedirectRelayed(t *testing.T) {
	backend := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sessions/s1/config" {
			http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
			return
		}
		w.Write([]byte("followed"))
	})
	front := frontOf(t, backend.URL)
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := hc.Get(front.URL + "/v1/sessions/s1/config")
	if err != nil {
		t.Fatalf("GET through the balancer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != "/elsewhere" {
		t.Fatalf("reply = %d with Location %q, want the backend's 307 to /elsewhere",
			resp.StatusCode, resp.Header.Get("Location"))
	}
}

// TestForwardedForAppended: the balancer appends the client's address,
// without its port, to the X-Forwarded-For chain the client sent, and sends
// the address alone when the client sent none.
func TestForwardedForAppended(t *testing.T) {
	seen := make(chan []string, 1)
	backend := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Values("X-Forwarded-For")
		w.Write([]byte("{}"))
	})
	front := frontOf(t, backend.URL)
	client, _, err := net.SplitHostPort(front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range []string{"203.0.113.7", ""} {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/sessions/s1/stats", nil)
		want := client
		if chain != "" {
			req.Header.Set("X-Forwarded-For", chain)
			want = chain + ", " + client
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET through the balancer: %v", err)
		}
		resp.Body.Close()
		if got := <-seen; len(got) != 1 || got[0] != want {
			t.Errorf("client chain %q reached the backend as X-Forwarded-For %q, want %q", chain, got, want)
		}
	}
}

// TestLookupUnansweredRetries: when an admitted replica cannot answer the
// lookup, the balancer cannot tell that no replica holds the session, so it
// answers 503 with Retry-After rather than 404.
func TestLookupUnansweredRetries(t *testing.T) {
	none := stubBackend(t, http.NotFound)
	broken := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	})
	front := frontOf(t, none.URL, broken.URL)
	resp, err := http.Get(front.URL + "/v1/sessions/s2/config")
	if err != nil {
		t.Fatalf("GET through the balancer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("lookup with one replica failing = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
