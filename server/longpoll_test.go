package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// oneQuestionConfig is the §2.1 configuration without its local-preference
// stanza: exampleIntent overlaps one stanza of it, so its update asks one
// question.
const oneQuestionConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT permit 20
 match ip address prefix-list D1
`

// pollReply is one reply that carries an update view: a GET of the view,
// a submit or an answer.
type pollReply struct {
	status int
	info   UpdateInfo
	body   []byte
	at     time.Time // when the reply was read
	err    error
}

// getUpdate GETs update uid of session sid with the raw query appended. It
// reports failures in the reply, so goroutines other than the test's may
// call it.
func getUpdate(base, sid, uid, query string) pollReply {
	return readReply(http.Get(base + "/v1/sessions/" + sid + "/updates/" + uid + query))
}

// postView POSTs body to path under base; like getUpdate it reports
// failures in the reply.
func postView(base, path, body string) pollReply {
	return readReply(http.Post(base+path, "application/json", strings.NewReader(body)))
}

// readReply reads a response whose 200 or 202 body is an update view.
func readReply(resp *http.Response, err error) pollReply {
	if err != nil {
		return pollReply{err: err}
	}
	defer resp.Body.Close()
	r := pollReply{status: resp.StatusCode}
	if r.body, r.err = io.ReadAll(resp.Body); r.err == nil && (r.status == http.StatusOK || r.status == http.StatusAccepted) {
		r.err = json.Unmarshal(r.body, &r.info)
	}
	r.at = time.Now()
	return r
}

// submitBody is the §2.1 walkthrough's submit request.
var submitBody = `{"intent":"` + exampleIntent + `","target":"ISP_OUT"}`

// standIn reserves session sid for an update that a pool worker runs in
// place of the pipeline, so a test decides when the next question comes:
// it posts question 1 and, once that is answered, waits for next to close
// before it posts question 2. The update fails when a question is
// cancelled, when question 2 is answered, or when the update is cancelled
// while the stand-in waits for next.
func standIn(t *testing.T, srv *Server, sid string, next <-chan struct{}) *update {
	t.Helper()
	sn, ok := srv.mgr.Get(sid)
	if !ok {
		t.Fatalf("session %s is not live", sid)
	}
	u, err := sn.beginUpdate(srv.baseCtx, newAsyncOracle(srv.baseCtx, time.Minute), exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		oracle := u.setRunning()
		oracle.bind(u.ctx)
		ask := func() error {
			_, err := oracle.ask(func(seq int) *Question {
				return &Question{Seq: seq, Kind: "route-map", Text: fmt.Sprintf("stand-in question %d", seq)}
			})
			return err
		}
		err := ask()
		if err == nil {
			select {
			case <-next:
				if err = ask(); err == nil {
					err = errors.New("stand-in finished")
				}
			case <-u.ctx.Done():
				err = context.Cause(u.ctx)
			}
		}
		sn.endUpdate(u, nil, err)
	}
	if err := srv.pool.Submit(run, func() { sn.endUpdate(u, nil, errPoolClosed) }); err != nil {
		t.Fatal(err)
	}
	return u
}

// waitInFlight waits until srv is serving at least n requests: the
// long-polls the test sent have reached their handler.
func waitInFlight(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.snapshot().InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d requests in flight after 5s", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitStatus waits until update uid of session sid exists and its view
// reports want. It reads the record directly, so it sends no request and
// waits for an update whose submit has not yet reached the pool.
func waitStatus(t *testing.T, srv *Server, sid, uid, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sn, ok := srv.mgr.Get(sid); ok {
			if u := sn.getUpdate(uid); u != nil && u.info().Status == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("update %s is not %q after 5s", uid, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLongPollInlineQuestion: ?after=0 on an update parked on question 1
// answers at once with the question inline, and ?after=1 sent before the
// answer returns the terminal view as soon as the pipeline finishes, not
// at the wait bound.
func TestLongPollInlineQuestion(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: oneQuestionConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	parked := waitPendingQuestion(t, c, sid)

	sent := time.Now()
	r := getUpdate(c.BaseURL, sid, u.ID, "?after=0")
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("GET ?after=0: %d %s, %v", r.status, r.body, r.err)
	}
	if d := r.at.Sub(sent); d > time.Second {
		t.Errorf("GET ?after=0 on a parked update took %v, want an immediate reply", d)
	}
	if r.info.Status != StatusWaiting || r.info.Question == nil || r.info.Question.Seq != 1 {
		t.Fatalf("GET ?after=0 = %s, want waiting with question 1 inline", r.body)
	}
	if r.info.Question.Text != parked.Text {
		t.Errorf("inline question differs from GET …/question:\n%s\nvs\n%s", r.info.Question.Text, parked.Text)
	}

	replies := make(chan pollReply, 1)
	go func() { replies <- getUpdate(c.BaseURL, sid, u.ID, "?after=1") }()
	waitInFlight(t, srv, 1)
	rec := sessionUpdate(t, srv, sid, u.ID)
	finished := make(chan time.Time, 1)
	go func() {
		<-rec.done
		finished <- time.Now()
	}()
	answered := time.Now()
	if _, err := c.answer(ctx, sid, 1, 1); err != nil {
		t.Fatal(err)
	}
	r = <-replies
	if r.err != nil || r.info.Status != StatusDone || r.info.Result == nil || r.info.Result.Questions != 1 {
		t.Fatalf("GET ?after=1 = %d %s, %v; want done after 1 question", r.status, r.body, r.err)
	}
	if r.at.Before(answered) {
		t.Errorf("GET ?after=1 returned before the answer was sent")
	}
	if d := r.at.Sub(<-finished); d > 100*time.Millisecond {
		t.Errorf("GET ?after=1 returned %v after the update finished, want within a few ms", d)
	}
}

// TestLongPollWakesOnQuestion: ?after=1 sent before question 1 is answered
// returns question 2 inline as soon as the pipeline posts it.
func TestLongPollWakesOnQuestion(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1})
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
	replies := make(chan pollReply, 1)
	go func() { replies <- getUpdate(c.BaseURL, sid, u.ID, "?after=1") }()
	waitInFlight(t, srv, 1)
	answered := time.Now()
	if _, err := c.answer(ctx, sid, 1, 1); err != nil {
		t.Fatal(err)
	}
	r := <-replies
	if r.err != nil || r.info.Status != StatusWaiting || r.info.Question == nil || r.info.Question.Seq != 2 {
		t.Fatalf("GET ?after=1 = %d %s, %v; want waiting with question 2 inline", r.status, r.body, r.err)
	}
	if d := r.at.Sub(answered); d > time.Second {
		t.Errorf("GET ?after=1 returned %v after the answer, want as soon as question 2 is posted", d)
	}
	if _, err := c.PollUpdate(ctx, sid, u.ID, func(Question) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestLongPollBadAfter: an after that is not a non-negative integer is a
// 400 with an ErrorResponse body, whatever the update's state.
func TestLongPollBadAfter(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?after=", "?after=x", "?after=-1", "?after=1.5", "?after=99999999999999999999"} {
		r := getUpdate(c.BaseURL, sid, u.ID, q)
		var e ErrorResponse
		if r.err != nil || r.status != http.StatusBadRequest || json.Unmarshal(r.body, &e) != nil || e.Error == "" {
			t.Errorf("GET %s = %d %s, %v; want 400 with an error body", q, r.status, r.body, r.err)
		}
	}
	if r := getUpdate(c.BaseURL, sid, "u9", "?after=0"); r.status != http.StatusNotFound {
		t.Errorf("GET unknown update ?after=0 = %d, want 404", r.status)
	}
	if _, err := c.PollUpdate(ctx, sid, u.ID, func(Question) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestLongPollSubmit: a submit with ?after=0 replies 202 with
// question 1 inline. An after that is not a non-negative integer is a 400
// with an ErrorResponse body that leaves the session free, so the next
// valid submit is accepted, not refused as busy.
func TestLongPollSubmit(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/sessions/" + sid + "/updates"
	for _, q := range []string{"?after=x", "?after=-1", "?after="} {
		r := postView(c.BaseURL, path+q, submitBody)
		var e ErrorResponse
		if r.err != nil || r.status != http.StatusBadRequest || json.Unmarshal(r.body, &e) != nil || e.Error == "" {
			t.Errorf("POST %s = %d %s, %v; want 400 with an error body", q, r.status, r.body, r.err)
		}
	}
	r := postView(c.BaseURL, path+"?after=0", submitBody)
	if r.err != nil || r.status != http.StatusAccepted {
		t.Fatalf("POST ?after=0 = %d %s, %v; want 202", r.status, r.body, r.err)
	}
	if r.info.Status != StatusWaiting || r.info.Question == nil || r.info.Question.Seq != 1 {
		t.Fatalf("POST ?after=0 = %s, want waiting with question 1 inline", r.body)
	}
	if _, err := c.PollUpdate(ctx, sid, r.info.ID, func(Question) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestLongPollAnswer: answering question 1 of the §2.1 walkthrough replies
// with question 2 inline, answering question 2 with the finished update,
// and a repeated answer still gets 409.
func TestLongPollAnswer(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
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
	answer := "/v1/sessions/" + sid + "/answer"

	r := postView(c.BaseURL, answer, `{"seq":1,"option":1}`)
	if r.err != nil || r.status != http.StatusOK || r.info.ID != u.ID ||
		r.info.Status != StatusWaiting || r.info.Question == nil || r.info.Question.Seq != 2 {
		t.Fatalf("answer 1 = %d %s, %v; want waiting with question 2 inline", r.status, r.body, r.err)
	}
	if r := postView(c.BaseURL, answer, `{"seq":1,"option":1}`); r.status != http.StatusConflict {
		t.Errorf("repeated answer 1 = %d %s, want 409", r.status, r.body)
	}
	r = postView(c.BaseURL, answer, `{"seq":2,"option":1}`)
	if r.err != nil || r.status != http.StatusOK || r.info.Status != StatusDone ||
		r.info.Result == nil || r.info.Result.Position != 0 || r.info.Result.Questions != 2 {
		t.Fatalf("answer 2 = %d %s, %v; want done at position 0 after 2 questions", r.status, r.body, r.err)
	}
	if r := postView(c.BaseURL, answer, `{"seq":2,"option":1}`); r.status != http.StatusConflict {
		t.Errorf("repeated answer 2 = %d %s, want 409", r.status, r.body)
	}
}

// TestLongPollOneRequestPerTurn: RunUpdate drives the §2.1 walkthrough with
// one request per dialogue turn, the submit and one answer per question,
// and never GETs the update.
func TestLongPollOneRequestPerTurn(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Shutdown(context.Background())
	var mu sync.Mutex
	var hits []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits = append(hits, r.Method+" "+r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:])
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()
	c := &Client{BaseURL: hs.URL}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone || res.Result == nil || res.Result.Position != 0 || res.Result.Questions != 2 {
		t.Fatalf("update = %+v, want done at position 0 after 2 questions", res)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"POST sessions", "POST updates", "POST answer", "POST answer"}
	if !slices.Equal(hits, want) {
		t.Errorf("requests %q, want %q", hits, want)
	}
}

// TestLongPollWakesOnDrain: a reply waiting on a running update returns
// its non-terminal view within 100ms of the server starting to drain, by
// either DrainForHandoff or Shutdown. The waiting reply is a long-poll, a
// submit with ?after=0, or an answer whose update posts no next
// question. A long-poll sent while the server drains returns at once.
func TestLongPollWakesOnDrain(t *testing.T) {
	// Each wait starts one waiting request on a fresh server and returns
	// its reply and the update it waits on; status is the reply's code.
	waits := []struct {
		name   string
		status int
		start  func(*testing.T, *Server, *Client, string) (<-chan pollReply, string)
	}{
		{"poll", http.StatusOK, func(t *testing.T, srv *Server, c *Client, sid string) (<-chan pollReply, string) {
			u, err := c.SubmitAsync(context.Background(), sid, exampleIntent, "ISP_OUT")
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, srv, sid, u.ID, StatusRunning)
			replies := make(chan pollReply, 1)
			go func() { replies <- getUpdate(c.BaseURL, sid, u.ID, "?after=0") }()
			return replies, u.ID
		}},
		{"submit", http.StatusAccepted, func(t *testing.T, srv *Server, c *Client, sid string) (<-chan pollReply, string) {
			replies := make(chan pollReply, 1)
			go func() {
				replies <- postView(c.BaseURL, "/v1/sessions/"+sid+"/updates?after=0", submitBody)
			}()
			// Running: the submit got past the drain check and the pool.
			waitStatus(t, srv, sid, "u1", StatusRunning)
			return replies, "u1"
		}},
		{"answer", http.StatusOK, func(t *testing.T, srv *Server, c *Client, sid string) (<-chan pollReply, string) {
			u := standIn(t, srv, sid, nil)
			waitPendingQuestion(t, c, sid)
			replies := make(chan pollReply, 1)
			go func() {
				replies <- postView(c.BaseURL, "/v1/sessions/"+sid+"/answer", `{"seq":1,"option":1}`)
			}()
			// Running, no longer waiting: the answer was delivered.
			waitStatus(t, srv, sid, u.id, StatusRunning)
			return replies, u.id
		}},
	}
	for _, tc := range []struct {
		name  string
		drain func(*Server, context.Context)
	}{
		{"DrainForHandoff", func(s *Server, ctx context.Context) { s.DrainForHandoff(ctx) }},
		{"Shutdown", func(s *Server, ctx context.Context) { s.Shutdown(ctx) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, wait := range waits {
				t.Run(wait.name, func(t *testing.T) {
					srv, c := startServer(t, Options{Workers: 1, LLM: blockingClient{}})
					ctx := context.Background()
					sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
					if err != nil {
						t.Fatal(err)
					}
					replies, uid := wait.start(t, srv, c, sid)
					waitInFlight(t, srv, 1)

					dctx, cancel := context.WithCancel(ctx)
					drained := make(chan struct{})
					began := time.Now()
					go func() {
						defer close(drained)
						tc.drain(srv, dctx)
					}()
					r := <-replies
					if r.err != nil || r.status != wait.status {
						t.Errorf("waiting %s: %d %s, %v; want %d", wait.name, r.status, r.body, r.err, wait.status)
					} else if d := r.at.Sub(began); d > 100*time.Millisecond || r.info.Terminal() {
						t.Errorf("waiting %s returned %q %v after the drain began, want a non-terminal view within 100ms", wait.name, r.info.Status, d)
					}
					sent := time.Now()
					r = getUpdate(c.BaseURL, sid, uid, "?after=0")
					if r.err != nil || r.status != http.StatusOK {
						t.Errorf("long-poll while draining: %d %s, %v", r.status, r.body, r.err)
					} else if d := r.at.Sub(sent); d > 100*time.Millisecond || r.info.Terminal() {
						t.Errorf("long-poll sent while draining returned %q after %v, want a non-terminal view at once", r.info.Status, d)
					}
					// End the drain and force-cancel the blocked update.
					cancel()
					<-drained
					srv.Shutdown(dctx)
				})
			}
		})
	}
}

// TestLongPollHandoffNeverSeesLocalFailure replays clarifyd's handoff:
// DrainForHandoff, SnapshotSessions, close the listener, then Shutdown
// force-cancels the local copies of the parked updates. A client
// long-polling one update throughout, and a client whose answer to another
// waits for that update's next question, must never be shown a copy's
// failure: the drain releases the blocked poll and the waiting answer,
// later polls return at once, so the listener closes with no reply left to
// wake on the cancellation.
func TestLongPollHandoffNeverSeesLocalFailure(t *testing.T) {
	srv := New(Options{Workers: 2, QuestionTimeout: time.Minute})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()
	// The force-cancelling shutdown, run again here in case the test
	// stops before its own.
	fctx, fcancel := context.WithCancel(ctx)
	fcancel()
	defer srv.Shutdown(fctx)
	c := &Client{BaseURL: hs.URL}
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	if q := waitPendingQuestion(t, c, sid); q.Seq != 1 {
		t.Fatalf("parked on question %d, want 1", q.Seq)
	}
	// The second session's update posts question 2 only once the drain
	// has begun, so the answer to question 1 waits until then.
	asid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	au := standIn(t, srv, asid, srv.drain)
	waitPendingQuestion(t, c, asid)

	// The poller waits for a question after the parked one until the
	// listener refuses it, recording every status it is shown.
	var seen []string
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			r := getUpdate(hs.URL, sid, u.ID, "?after=1")
			if r.err != nil {
				return
			}
			seen = append(seen, r.info.Status)
			time.Sleep(time.Millisecond)
		}
	}()
	answered := make(chan pollReply, 1)
	go func() { answered <- postView(hs.URL, "/v1/sessions/"+asid+"/answer", `{"seq":1,"option":1}`) }()
	waitStatus(t, srv, asid, au.id, StatusRunning) // the answer was delivered
	waitInFlight(t, srv, 2)

	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srv.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain for handoff: %v", err)
	}
	snaps := srv.SnapshotSessions("a")
	if len(snaps) != 2 {
		t.Fatalf("snapshot = %+v, want two sessions", snaps)
	}
	for _, snap := range snaps {
		if snap.Pending == nil || snap.Pending.Question == nil {
			t.Fatalf("snapshot of %s = %+v, want its parked update", snap.ID, snap)
		}
	}
	lctx, lcancel := context.WithTimeout(ctx, time.Second)
	defer lcancel()
	if err := hs.Config.Shutdown(lctx); err != nil {
		t.Errorf("closing the listener: %v; a reply was still in flight", err)
	}
	srv.Shutdown(fctx)
	<-pollerDone

	if len(seen) == 0 {
		t.Fatal("the blocked long-poll never returned")
	}
	for i, st := range seen {
		if st == StatusFailed {
			t.Errorf("poll %d of %d saw the local copy's failure", i+1, len(seen))
		}
	}
	if r := <-answered; r.err != nil || r.status != http.StatusOK || r.info.Status == StatusFailed {
		t.Errorf("waiting answer = %d %s, %v; want a view that has not failed", r.status, r.body, r.err)
	}
	for _, lu := range []*update{sessionUpdate(t, srv, sid, u.ID), au} {
		if got := lu.info(); got.Status != StatusFailed {
			t.Errorf("local copy of %s after the forced shutdown = %q, want failed", lu.id, got.Status)
		}
	}
}

// TestLongPollPausesWhileDraining: a draining daemon answers a long-poll at
// once with no progress, so PollUpdate pauses PollInterval between two
// such GETs instead of spinning.
func TestLongPollPausesWhileDraining(t *testing.T) {
	srv := New(Options{Workers: 1, LLM: blockingClient{}})
	var mu sync.Mutex
	var polls []time.Time
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/updates/") {
			mu.Lock()
			polls = append(polls, time.Now())
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()
	const interval = 20 * time.Millisecond
	c := &Client{BaseURL: hs.URL, PollInterval: interval}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, sid, u.ID, StatusRunning)
	// The update blocks on its LLM call until the force-cancelling
	// shutdown at the end.
	fctx, fcancel := context.WithCancel(ctx)
	fcancel()
	defer srv.Shutdown(fctx)
	srv.startDrain()

	pctx, pcancel := context.WithTimeout(ctx, 10*interval)
	defer pcancel()
	last, err := c.PollUpdate(pctx, sid, u.ID, func(Question) (int, error) {
		return 0, errors.New("no question was posted")
	})
	if !errors.Is(err, context.DeadlineExceeded) || last.Terminal() {
		t.Fatalf("PollUpdate while draining = %+v, %v; want the running update and the context's deadline", last, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(polls) < 2 {
		t.Fatalf("%d update GETs in %v, want at least two", len(polls), 10*interval)
	}
	for i := 1; i < len(polls); i++ {
		if d := polls[i].Sub(polls[i-1]); d < interval {
			t.Fatalf("update GET %d of %d came %v after the one before, want at least PollInterval %v", i+1, len(polls), d, interval)
		}
	}
}
