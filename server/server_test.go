package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// exampleConfig is the paper's §2.1 ISP_OUT running example.
const exampleConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
`

// exampleIntent is the §2.1 natural-language intent.
const exampleIntent = "Write a route-map stanza that permits routes containing the prefix " +
	"100.0.0.0/16 with mask length less than or equal to 23 and tagged " +
	"with the community 300:3. Their MED value should be set to 55."

const edgeACL = `ip access-list extended EDGE_IN
 deny tcp any any eq 22
 permit udp 10.0.0.0 0.0.0.255 any eq 53
 permit tcp any any established
 deny ip any any
`

const aclIntent = "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to any host on port 22."

// startServer spins a Server behind httptest and returns its client.
func startServer(t testing.TB, opts Options) (*Server, *Client) {
	t.Helper()
	srv := New(opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
	})
	return srv, &Client{BaseURL: hs.URL, PollInterval: 2 * time.Millisecond}
}

// answerPump answers every pending question on the session with OPTION 1
// until stopped.
func answerPump(c *Client, sid string, stop <-chan struct{}) {
	go func() {
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, err := c.question(context.Background(), sid)
			if err == nil && q != nil && q.Seq != last {
				if _, err := c.answer(context.Background(), sid, q.Seq, 1); err == nil {
					last = q.Seq
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
}

// waitPendingQuestion polls until the session shows a parked question.
func waitPendingQuestion(t testing.TB, c *Client, sid string) *Question {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		q, err := c.question(context.Background(), sid)
		if err != nil {
			t.Fatalf("question poll: %v", err)
		}
		if q != nil {
			return q
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no question became pending")
	return nil
}

// TestWalkthroughOverHTTP replays the §2.1 walkthrough end to end over the
// HTTP API: create session, submit the intent, answer both differential
// questions with OPTION 1, and fetch the updated configuration.
func TestWalkthroughOverHTTP(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}

	var asked []Question
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) {
		asked = append(asked, q)
		return 1, nil // OPTION 1: the new stanza wins
	})
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone || res.Result == nil {
		t.Fatalf("update did not finish: %+v", res)
	}
	if res.Result.Position != 0 || res.Result.Questions != 2 {
		t.Errorf("got position %d with %d questions, want 0 and 2", res.Result.Position, res.Result.Questions)
	}
	if res.Result.Renames["COM_LIST"] != "D2" || res.Result.Renames["PREFIX_100"] != "D3" {
		t.Errorf("renames = %v, want COM_LIST→D2 PREFIX_100→D3", res.Result.Renames)
	}
	if len(asked) != 2 {
		t.Fatalf("answered %d questions, want 2", len(asked))
	}
	for i, q := range asked {
		if q.Kind != "route-map" || q.Route == nil {
			t.Errorf("question %d missing route witness: %+v", i, q)
		}
		if q.Option1 == "" || q.Option2 == "" || !strings.Contains(q.Text, "OPTION 1") {
			t.Errorf("question %d missing rendered options: %+v", i, q)
		}
	}

	cfg, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatalf("fetch config: %v", err)
	}
	for _, want := range []string{"set metric 55", "D2", "D3", "route-map ISP_OUT"} {
		if !strings.Contains(cfg, want) {
			t.Errorf("updated config missing %q:\n%s", want, cfg)
		}
	}

	st, err := c.Stats(ctx, sid)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.LLMCalls != 3 || st.Disambiguations != 2 || st.Updates != 1 {
		t.Errorf("stats = %+v, want 3 LLM calls, 2 disambiguations, 1 update", st)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Pipeline.LLMCalls != 3 || m.Pipeline.Updates != 1 {
		t.Errorf("cumulative pipeline stats = %+v", m.Pipeline)
	}
	if m.Workers == 0 || m.QueueCapacity == 0 {
		t.Errorf("pool gauges missing: %+v", m)
	}
	h, ok := m.LatencyMs["POST /v1/sessions"]
	if !ok || h.Count == 0 {
		t.Errorf("latency histogram for session create missing: %+v", m.LatencyMs)
	}
	if m.Requests["POST /v1/sessions/{id}/updates"] == 0 {
		t.Errorf("per-endpoint request counters missing: %+v", m.Requests)
	}
	if m.SpaceCache.Hits+m.SpaceCache.Misses == 0 {
		t.Errorf("route-space cache counters missing from /metrics: %+v", m.SpaceCache)
	}
	if m.SpaceCache.Automata == 0 {
		t.Errorf("route-space cache automaton count missing from /metrics: %+v", m.SpaceCache)
	}
}

// TestACLUpdateOverHTTP exercises the ACL pipeline and packet-witness
// questions over HTTP.
func TestACLUpdateOverHTTP(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: edgeACL})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	var asked []Question
	res, err := c.RunUpdate(ctx, sid, aclIntent, "EDGE_IN", func(q Question) (int, error) {
		asked = append(asked, q)
		return 1, nil
	})
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone || res.Result == nil {
		t.Fatalf("update did not finish: %+v", res)
	}
	if res.Result.Kind != "acl" {
		t.Errorf("kind = %q, want acl", res.Result.Kind)
	}
	if len(asked) == 0 {
		t.Fatal("expected at least one packet question (the new permit overlaps the ssh deny)")
	}
	for i, q := range asked {
		if q.Kind != "acl" || q.Packet == "" {
			t.Errorf("question %d missing packet witness: %+v", i, q)
		}
	}
	cfg, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "permit tcp 10.0.0.0 0.0.0.255 any eq 22") {
		t.Errorf("updated ACL missing new entry:\n%s", cfg)
	}
}

// TestConcurrentSessions hammers the pool with many sessions in parallel;
// run under -race this is the serving layer's concurrency-safety test.
func TestConcurrentSessions(t *testing.T) {
	_, c := startServer(t, Options{Workers: 4, QueueSize: 32})
	const n = 8

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
			if err != nil {
				errs <- err
				return
			}
			res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) { return 1, nil })
			if err != nil {
				errs <- err
				return
			}
			if res.Status != StatusDone || res.Result.Position != 0 || res.Result.Questions != 2 {
				errs <- errors.New("unexpected result: " + res.Status + " " + res.Error)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Pipeline.Updates != n || m.Pipeline.LLMCalls != 3*n {
		t.Errorf("cumulative stats = %+v, want %d updates and %d LLM calls", m.Pipeline, n, 3*n)
	}
	if m.Sessions != n {
		t.Errorf("sessions = %d, want %d", m.Sessions, n)
	}
}

// TestQueueFullBackpressure saturates a 1-worker/1-slot pool and checks that
// excess submissions are shed with 429 + Retry-After while /metrics reports
// the congestion.
func TestQueueFullBackpressure(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueSize: 1, QuestionTimeout: 30 * time.Second})
	ctx := context.Background()

	var sids []string
	for i := 0; i < 8; i++ {
		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, sid)
	}

	// First update occupies the worker, parked on its question.
	first, err := c.SubmitAsync(ctx, sids[0], exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	waitPendingQuestion(t, c, sids[0])

	// Second update fills the single queue slot.
	second, err := c.SubmitAsync(ctx, sids[1], exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}

	// Everything beyond capacity must be rejected with 429.
	rejected := 0
	for _, sid := range sids[2:] {
		_, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
		if err == nil {
			t.Fatalf("submit on %s unexpectedly accepted", sid)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("want 429 APIError, got %v", err)
		}
		if apiErr.RetryAfterSeconds <= 0 {
			t.Errorf("429 missing Retry-After hint: %+v", apiErr)
		}
		rejected++
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueDepth != 1 {
		t.Errorf("queue depth = %d, want 1", m.QueueDepth)
	}
	if m.ActiveUpdates != 1 {
		t.Errorf("active updates = %d, want 1", m.ActiveUpdates)
	}
	if m.Rejected < int64(rejected) {
		t.Errorf("rejected counter = %d, want >= %d", m.Rejected, rejected)
	}

	// Drain: answer both live updates to completion.
	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sids[0], stop)
	answerPump(c, sids[1], stop)
	for _, pair := range []struct{ sid, uid string }{{sids[0], first.ID}, {sids[1], second.ID}} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			u, err := c.update(ctx, pair.sid, pair.uid)
			if err != nil {
				t.Fatal(err)
			}
			if u.Terminal() {
				if u.Status != StatusDone {
					t.Errorf("update %s/%s failed: %s", pair.sid, pair.uid, u.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("update %s/%s never finished", pair.sid, pair.uid)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestBusyConflict: a session admits one update at a time.
func TestBusyConflict(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	waitPendingQuestion(t, c, sid)
	_, err = c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("want 409 on busy session, got %v", err)
	}
	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sid, stop)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := c.update(ctx, sid, u.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBackToBackUpdates runs updates on one session one after another,
// each submitted as soon as the previous one reads terminal. The session is
// released before its update turns terminal, so no submit may get 409.
func TestBackToBackUpdates(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: edgeACL})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(Question) (int, error) { return 1, nil }
	for i := 0; i < 200; i++ {
		intentText := fmt.Sprintf("Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to any host on port %d.", 1000+i)
		res, err := c.RunUpdate(ctx, sid, intentText, "EDGE_IN", answer)
		if err != nil {
			t.Fatalf("update %d: %v", i+1, err)
		}
		if res.Status != StatusDone {
			t.Fatalf("update %d did not finish: %+v", i+1, res)
		}
	}
}

// TestQuestionTimeout: an unanswered question aborts the update and leaves
// the session available with its configuration unchanged.
func TestQuestionTimeout(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QuestionTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var final UpdateInfo
	for {
		final, err = c.update(ctx, sid, u.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never became terminal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "timed out") {
		t.Fatalf("want failed-with-timeout, got %+v", final)
	}
	info, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if info.Busy {
		t.Error("session still busy after aborted update")
	}
	after, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("aborted update mutated the visible configuration")
	}
}

// TestGracefulShutdownDrains: Shutdown waits for in-flight updates; one
// parked on a question finishes once answered, and the drained server
// refuses new work.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1, QuestionTimeout: 30 * time.Second})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	waitPendingQuestion(t, c, sid)

	shutdownErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()

	stop := make(chan struct{})
	defer close(stop)
	answerPump(c, sid, stop)

	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	final, err := c.update(ctx, sid, u.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("in-flight update not drained: %+v", final)
	}
	// The drained server sheds new work.
	if _, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT"); err == nil {
		t.Error("submit accepted after shutdown")
	}
	if _, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); err == nil {
		t.Error("session create accepted after shutdown")
	}
}

// TestShutdownForceCancels: when the drain budget expires, updates parked on
// questions are cancelled rather than leaked.
func TestShutdownForceCancels(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1, QuestionTimeout: 30 * time.Second})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	waitPendingQuestion(t, c, sid)

	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline-exceeded drain, got %v", err)
	}
	final, err := c.update(ctx, sid, u.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "cancelled") {
		t.Fatalf("want cancelled update after forced shutdown, got %+v", final)
	}
}

// TestSessionTTLEviction: idle sessions are evicted by the janitor and show
// up in the eviction counter.
func TestSessionTTLEviction(t *testing.T) {
	_, c := startServer(t, Options{IdleTTL: 30 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	// Polling the session itself would refresh its idle clock (reads count
	// as traffic), so watch the eviction counter instead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.EvictedSessions > 0 {
			if m.Sessions != 0 {
				t.Errorf("evicted but %d sessions still live", m.Sessions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A TTL-evicted session is distinguishable from an ID that never
	// existed: 410 Gone with the "evicted" reason, the signal a balancer
	// uses to drop its stale affinity pin.
	_, err = c.Session(ctx, sid)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGone || apiErr.Reason != ReasonEvicted {
		t.Fatalf("want 410 Gone (evicted) after eviction, got %v", err)
	}
	_, err = c.Session(ctx, "s999-never-existed")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404 for unknown ID, got %v", err)
	}
}

// TestMaxSessionsCap: creates beyond the cap are refused with 503.
func TestMaxSessionsCap(t *testing.T) {
	_, c := startServer(t, Options{MaxSessions: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 at session cap, got %v", err)
	}
}

// TestSubmitRepliesAtOnce: a submit without ?after answers 202 at once
// with the update's non-terminal view, although the update then parks on a
// question that nobody answers until the submit has returned.
func TestSubmitRepliesAtOnce(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	r := postView(c.BaseURL, "/v1/sessions/"+sid+"/updates", submitBody)
	if r.err != nil || r.status != http.StatusAccepted {
		t.Fatalf("submit = %d %s, %v; want 202", r.status, r.body, r.err)
	}
	if d := r.at.Sub(sent); d > time.Second {
		t.Errorf("submit took %v, want an immediate reply", d)
	}
	if r.info.ID == "" || r.info.Terminal() {
		t.Fatalf("submit = %s, want a non-terminal update view", r.body)
	}
	res, err := c.PollUpdate(ctx, sid, r.info.ID, func(Question) (int, error) { return 1, nil })
	if err != nil || res.Status != StatusDone || res.Result == nil || res.Result.Questions != 2 {
		t.Fatalf("update = %+v, %v; want done after 2 questions", res, err)
	}
}

// TestBadRequests covers the defensive paths: bad JSON, bad config, missing
// fields, unknown session, bad answers, and request bodies that are not
// exactly one object of the endpoint's fields.
func TestBadRequests(t *testing.T) {
	_, c := startServer(t, Options{})
	ctx := context.Background()

	if _, err := c.CreateSession(ctx, CreateSessionRequest{Config: "route-map X permit\n broken"}); err == nil {
		t.Error("malformed config accepted")
	}
	for _, body := range []string{`null`, `{}`, `{"config":""}`, `{"intent":"x"}`, `[]`, `"config"`,
		`{"config":"route-map RM permit 10\n"} {}`, `{"config":"route-map RM permit 10\n"}}`} {
		postBody(t, c.BaseURL+"/v1/sessions", []byte(body), http.StatusBadRequest)
	}
	if _, err := c.Session(ctx, "nope"); err == nil {
		t.Error("unknown session served")
	}
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitAsync(ctx, sid, "", ""); err == nil {
		t.Error("empty intent accepted")
	}
	// "async" is an unknown field like any other.
	for _, body := range []string{`null`, `{"intent":"x","target":"ISP_OUT","priority":1}`,
		`{"intent":"x","target":"ISP_OUT","async":true}`, `{"intent":"x","target":"ISP_OUT"} x`} {
		postBody(t, c.BaseURL+"/v1/sessions/"+sid+"/updates", []byte(body), http.StatusBadRequest)
	}
	for _, body := range []string{`null`, `{"seq":1,"option":1,"note":"x"}`, `{"seq":1,"option":1}{}`} {
		postBody(t, c.BaseURL+"/v1/sessions/"+sid+"/answer", []byte(body), http.StatusBadRequest)
	}
	// No update in flight: answers conflict.
	_, err = c.answer(ctx, sid, 1, 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("want 409 answering idle session, got %v", err)
	}
	if err := c.DeleteSession(ctx, sid); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession(ctx, sid); err == nil {
		t.Error("double delete succeeded")
	}
}

// TestOversizedBodyRefused: a body over its route's bound is refused with
// 413 and an ErrorResponse naming the bound, whether it declares its length
// or arrives chunked, instead of being cut at the bound and failing to
// decode with 400.
func TestOversizedBodyRefused(t *testing.T) {
	const maxConfig = 1 << 10
	_, c := startServer(t, Options{MaxConfigBytes: maxConfig})
	sid, err := c.CreateSession(context.Background(), CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		limit        int
	}{
		{http.MethodPost, "/v1/sessions", maxConfig},
		{http.MethodPost, "/v1/sessions/" + sid + "/updates", maxSubmitBytes},
		{http.MethodPost, "/v1/sessions/" + sid + "/answer", maxAnswerBytes},
		{http.MethodPut, "/v1/sessions/" + sid + "-copy/restore", 2*maxConfig + 1<<20},
	} {
		body := []byte(`{"config":"` + strings.Repeat("x", tc.limit) + `"}`)
		for _, chunked := range []bool{false, true} {
			var rd io.Reader = bytes.NewReader(body)
			if chunked {
				rd = struct{ io.Reader }{rd} // an unknown length: sent chunked
			}
			req, err := http.NewRequest(tc.method, c.BaseURL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.method, tc.path, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: read reply: %v", tc.method, tc.path, err)
			}
			var e ErrorResponse
			if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(data, &e) != nil ||
				!strings.Contains(e.Error, strconv.Itoa(tc.limit)) {
				t.Errorf("%s %s with %d bytes (chunked %v): %d %q; want 413 naming the %d-byte bound",
					tc.method, tc.path, len(body), chunked, resp.StatusCode, data, tc.limit)
			}
		}
	}
}

// TestDeleteCancelsParkedUpdate: deleting a session fails its parked update
// at once and frees the worker it held. With one worker and an hour-long
// question timeout, session B's update queues behind A's parked one and can
// finish only once deleting A releases the worker.
func TestDeleteCancelsParkedUpdate(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1, QuestionTimeout: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var sids [2]string
	for i := range sids {
		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
	}
	if _, err := c.SubmitAsync(ctx, sids[0], exampleIntent, "ISP_OUT"); err != nil {
		t.Fatal(err)
	}
	waitPendingQuestion(t, c, sids[0])
	uB, err := c.SubmitAsync(ctx, sids[1], exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession(ctx, sids[0]); err != nil {
		t.Fatal(err)
	}
	got, err := c.PollUpdate(ctx, sids[1], uB.ID, func(Question) (int, error) { return 1, nil })
	if err != nil || got.Status != StatusDone {
		t.Fatalf("session B's update: %+v, %v; want done within 5s of deleting A", got, err)
	}
	for {
		resp, err := http.Get(c.BaseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h HealthStatus
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.ActiveUpdates == 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("active_updates = %d after both updates ended, want 0", h.ActiveUpdates)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deleted := false
	for _, tr := range srv.traces.List() {
		if a, ok := tr.Root.Attr("error"); ok && strings.HasSuffix(a.Str, "update cancelled: session deleted") {
			deleted = true
		}
	}
	if !deleted {
		t.Error(`no trace records session A's update failing with "session deleted"`)
	}
}
