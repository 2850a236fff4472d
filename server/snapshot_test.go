package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/replay"
	"github.com/clarifynet/clarify/snapshot"
)

// runBaseline executes the §2.1 walkthrough on a throwaway server with no
// restart and returns the question texts asked and the final configuration.
func runBaseline(t *testing.T) (questions []string, finalConfig string) {
	t.Helper()
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("baseline create: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) {
		questions = append(questions, q.Text)
		return 1, nil
	})
	if err != nil || res.Status != StatusDone {
		t.Fatalf("baseline run: %v (%+v)", err, res)
	}
	cfg, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatalf("baseline config: %v", err)
	}
	return questions, cfg
}

// TestSnapshotRestoreParkedQuestion is the acceptance walkthrough: a session
// parked on an unanswered question survives a daemon handoff byte-identically
// — the client's next poll sees the same question text under the same update
// ID and sequence number, and the eventual final configuration matches a run
// that never saw a restart.
func TestSnapshotRestoreParkedQuestion(t *testing.T) {
	baselineQuestions, baselineConfig := runBaseline(t)
	if len(baselineQuestions) != 2 {
		t.Fatalf("baseline asked %d questions, want 2", len(baselineQuestions))
	}

	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	u, err := cA.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Answer question 1, then leave question 2 parked — the state a rolling
	// restart interrupts.
	q1 := waitPendingQuestion(t, cA, sid)
	if err := cA.Answer(ctx, sid, q1.Seq, 1); err != nil {
		t.Fatalf("answer q1: %v", err)
	}
	var q2 *Question
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, err := cA.Question(ctx, sid)
		if err != nil {
			t.Fatalf("question poll: %v", err)
		}
		if q != nil && q.Seq != q1.Seq {
			q2 = q
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("question 2 never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if q2.Text != baselineQuestions[1] {
		t.Fatalf("pre-handoff question 2 diverged from baseline:\n%s\nvs\n%s", q2.Text, baselineQuestions[1])
	}

	// SIGTERM on daemon A: drain to parked state and capture.
	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srvA.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain for handoff: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 {
		t.Fatalf("snapshotted %d sessions, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.ID != sid || snap.Pending == nil || snap.Pending.ID != u.ID {
		t.Fatalf("snapshot mangled the pending update: %+v", snap.Pending)
	}
	if len(snap.Pending.Answers) != 1 || !snap.Pending.Answers[0].PreferNew {
		t.Fatalf("snapshot transcript = %+v, want the one OPTION 1 answer", snap.Pending.Answers)
	}
	if snap.Pending.Question == nil || snap.Pending.Question.Seq != q2.Seq {
		t.Fatalf("snapshot parked question = %+v, want seq %d", snap.Pending.Question, q2.Seq)
	}

	// Let daemon A's copy of the parked update finish so its shutdown is
	// prompt; the snapshot is already taken. (A real SIGTERM flow would
	// force-cancel it inside srv.Shutdown instead.)
	if err := cA.Answer(ctx, sid, q2.Seq, 1); err != nil {
		t.Fatalf("unpark daemon A: %v", err)
	}

	// Rehydrate on daemon B and poll as the oblivious client would.
	_, cB := startServer(t, Options{Workers: 2})
	resp, err := cB.RestoreSession(ctx, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if resp.ID != sid || !resp.Pending {
		t.Fatalf("restore response = %+v", resp)
	}

	// The same question must reappear: same seq, byte-identical text.
	restored := waitPendingQuestion(t, cB, sid)
	if restored.Seq != q2.Seq {
		t.Fatalf("restored question seq = %d, want %d", restored.Seq, q2.Seq)
	}
	if restored.Text != q2.Text {
		t.Fatalf("restored question diverged:\n%s\nvs\n%s", restored.Text, q2.Text)
	}
	// The update is pollable under its original ID, reported waiting.
	ru, err := cB.Update(ctx, sid, u.ID)
	if err != nil {
		t.Fatalf("poll restored update %s: %v", u.ID, err)
	}
	if ru.Status != StatusWaiting {
		t.Fatalf("restored update status = %q, want %q", ru.Status, StatusWaiting)
	}

	// Answer it; the run must complete with the baseline's exact config.
	if err := cB.Answer(ctx, sid, restored.Seq, 1); err != nil {
		t.Fatalf("answer restored question: %v", err)
	}
	final, err := cB.PollUpdate(ctx, sid, u.ID, func(q Question) (int, error) { return 1, nil })
	if err != nil || final.Status != StatusDone {
		t.Fatalf("restored update did not finish: %v (%+v)", err, final)
	}
	gotConfig, err := cB.Config(ctx, sid)
	if err != nil {
		t.Fatalf("config after restore: %v", err)
	}
	if gotConfig != baselineConfig {
		t.Fatalf("post-handoff config diverged from the never-restarted run:\n%s\nvs\n%s", gotConfig, baselineConfig)
	}
}

// TestRestoreIgnoresRetiredTenantField: a snapshot written before the
// tenant field was retired still restores. The body carries "tenant" next
// to a finished update and a pending one parked on its second question; the
// successor keeps the session ID, both update IDs and the parked question,
// the dialogue finishes, and the next update continues the ID sequence.
func TestRestoreIgnoresRetiredTenantField(t *testing.T) {
	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	first, err := cA.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(Question) (int, error) { return 1, nil })
	if err != nil || first.Status != StatusDone {
		t.Fatalf("first update: %v (%+v)", err, first)
	}
	// A second intent against the updated map asks two questions again.
	const followUp = "Write a route-map stanza that permits routes containing the prefix " +
		"10.1.0.0/16 with mask length less than or equal to 24 and tagged with the " +
		"community 400:4. Their MED value should be set to 7."
	u, err := cA.SubmitAsync(ctx, sid, followUp, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	q1 := waitPendingQuestion(t, cA, sid)
	if err := cA.Answer(ctx, sid, q1.Seq, 1); err != nil {
		t.Fatalf("answer q1: %v", err)
	}
	var parked *Question
	deadline := time.Now().Add(5 * time.Second)
	for parked == nil {
		if q, err := cA.Question(ctx, sid); err == nil && q != nil && q.Seq != q1.Seq {
			parked = q
		} else if time.Now().After(deadline) {
			t.Fatal("second question never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srvA.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain for handoff: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 || snaps[0].Pending == nil {
		t.Fatalf("snapshots = %+v, want one session with a pending update", snaps)
	}
	// The handed-off copy is the live one now; cancel the local one.
	sctx, scancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer scancel()
	srvA.Shutdown(sctx)

	// Write the body as the older format did: with the session's tenant.
	var fields map[string]json.RawMessage
	data, _ := json.Marshal(snaps[0])
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["tenant"] = json.RawMessage(`"mallory"`)
	body, _ := json.Marshal(fields)

	_, cB := startServer(t, Options{Workers: 2})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPut, cB.BaseURL+"/v1/sessions/"+sid+"/restore", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var rr RestoreSessionResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || rr.ID != sid || !rr.Pending {
		t.Fatalf("restore = %d %+v, want 201 for %s with a pending update", resp.StatusCode, rr, sid)
	}

	if got, err := cB.Update(ctx, sid, first.ID); err != nil || got.Status != StatusDone {
		t.Fatalf("restored history %s = %+v, %v; want done", first.ID, got, err)
	}
	restored := waitPendingQuestion(t, cB, sid)
	if restored.Seq != parked.Seq || restored.Text != parked.Text {
		t.Fatalf("restored question = seq %d %q, want seq %d %q", restored.Seq, restored.Text, parked.Seq, parked.Text)
	}
	if got, err := cB.Update(ctx, sid, u.ID); err != nil || got.Status != StatusWaiting {
		t.Fatalf("restored update %s = %+v, %v; want waiting", u.ID, got, err)
	}
	final, err := cB.PollUpdate(ctx, sid, u.ID, func(Question) (int, error) { return 1, nil })
	if err != nil || final.Status != StatusDone {
		t.Fatalf("restored update %s did not finish: %v (%+v)", u.ID, err, final)
	}
	next, err := cB.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit after restore: %v", err)
	}
	if next.ID != "u3" {
		t.Fatalf("next update ID = %s, want u3", next.ID)
	}
	if _, err := cB.PollUpdate(ctx, sid, next.ID, func(Question) (int, error) { return 1, nil }); err != nil {
		t.Fatalf("update after restore: %v", err)
	}
}

// TestSnapshotRestoreIdleSessionHistory: an idle session's update history,
// counters, and ID sequence survive a handoff.
func TestSnapshotRestoreIdleSessionHistory(t *testing.T) {
	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	res, err := cA.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) { return 1, nil })
	if err != nil || res.Status != StatusDone {
		t.Fatalf("update: %v (%+v)", err, res)
	}
	statsA, err := cA.Stats(ctx, sid)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}

	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 || snaps[0].Pending != nil {
		t.Fatalf("idle snapshot = %+v, want one session with no pending update", snaps)
	}
	if snaps[0].Fingerprint == "" {
		t.Fatal("snapshot missing config fingerprint")
	}

	_, cB := startServer(t, Options{Workers: 2})
	if _, err := cB.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// History is pollable under the original update ID, result intact.
	hu, err := cB.Update(ctx, sid, res.ID)
	if err != nil {
		t.Fatalf("poll history %s: %v", res.ID, err)
	}
	if hu.Status != StatusDone || hu.Result == nil || hu.Result.Questions != res.Result.Questions {
		t.Fatalf("restored history = %+v, want %+v", hu, res)
	}
	// Counters resumed, not reset.
	statsB, err := cB.Stats(ctx, sid)
	if err != nil {
		t.Fatalf("stats after restore: %v", err)
	}
	if statsB != statsA {
		t.Fatalf("stats after restore = %+v, want %+v", statsB, statsA)
	}
	// The update-ID sequence continues where it left off.
	next, err := cB.RunUpdate(ctx, sid, aclIntent, "EDGE_IN", func(q Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("post-restore update: %v", err)
	}
	if next.ID != "u2" {
		t.Fatalf("post-restore update ID = %q, want u2", next.ID)
	}
}

// TestConfigPrintedOnRead: a session's configuration is printed when it is
// read, not when an update publishes it. After two updates with no read
// between them nothing has been printed; the read then returns the second
// update's result, and a snapshot taken then carries the same text.
func TestConfigPrintedOnRead(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 2; i++ {
		res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(Question) (int, error) { return 1, nil })
		if err != nil || res.Status != StatusDone {
			t.Fatalf("update %d: %v (%+v)", i+1, err, res)
		}
	}
	sn, ok := srv.mgr.Get(sid)
	if !ok {
		t.Fatalf("session %s is not live", sid)
	}
	sn.mu.Lock()
	printed := sn.cfgText
	sn.mu.Unlock()
	if printed != "" {
		t.Fatalf("configuration printed before any read:\n%s", printed)
	}
	want := sn.sess.CurrentConfig().Print()
	if n := strings.Count(want, "set metric 55"); n != 2 {
		t.Fatalf("the session's configuration holds %d new stanzas after two updates, want 2:\n%s", n, want)
	}
	got, err := c.Config(ctx, sid)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if got != want {
		t.Fatalf("config read after two updates:\n%s\nwant the second update's result:\n%s", got, want)
	}
	snaps := srv.SnapshotSessions("node")
	if len(snaps) != 1 || snaps[0].ConfigText != want {
		t.Fatalf("snapshot = %+v, want one session carrying the second update's configuration", snaps)
	}
}

// TestRestoreRejections: conflicts, tampered snapshots, and draining
// servers map onto 409/422/503.
func TestRestoreRejections(t *testing.T) {
	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	if _, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); err != nil {
		t.Fatalf("create: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}

	// Restoring onto a server that still owns the session is a conflict.
	var apiErr *APIError
	if _, err := cA.RestoreSession(ctx, snaps[0]); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("restore onto owner = %v, want 409", err)
	}

	// A tampered config (fingerprint mismatch) is unprocessable. The
	// fingerprint hashes the as-path/community pattern universe, so the
	// tamper must touch a pattern.
	_, cB := startServer(t, Options{Workers: 2})
	tampered := *snaps[0]
	tampered.ConfigText = tampered.ConfigText + "ip as-path access-list EVIL permit _666_\n"
	if _, err := cB.RestoreSession(ctx, &tampered); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("restore tampered = %v, want 422", err)
	}
	// A future-schema snapshot is refused, not misinterpreted.
	future := *snaps[0]
	future.Schema = snapshot.SchemaVersion + 1
	if _, err := cB.RestoreSession(ctx, &future); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("restore future schema = %v, want 422", err)
	}
	// A field this build does not know is the mark of a newer schema, so
	// restore decodes leniently and leaves the refusal to Validate.
	data, err := json.Marshal(future)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte(`{"newerField":true,`), data[1:]...)
	req, err := http.NewRequest(http.MethodPut, cB.BaseURL+"/v1/sessions/"+future.ID+"/restore", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("restore future schema with an unknown field = %d, want 422", resp.StatusCode)
	}

	// A draining server adopts nothing.
	srvC, cC := startServer(t, Options{Workers: 2})
	dctx, dcancel := context.WithTimeout(ctx, time.Second)
	defer dcancel()
	if err := srvC.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := cC.RestoreSession(ctx, snaps[0]); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("restore while draining = %v, want 503", err)
	}

	// A next update ID that names an update in the history would be handed
	// out again, and the next submit would replace the finished record.
	if _, err := cB.RestoreSession(ctx, staleNextUpdate(t, srvA, cA)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("restore with a stale next update ID = %v, want 422", err)
	}
}

// staleNextUpdate captures a session whose history is [u1] and sets its
// next update ID back to 0.
func staleNextUpdate(t testing.TB, srv *Server, c *Client) *snapshot.Session {
	t.Helper()
	sid, err := c.CreateSession(context.Background(), CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	runWalkthrough(t, c, sid)
	snap := captureSession(t, srv, sid)
	snap.NextUpdate = 0
	return snap
}

// captureSession snapshots the one session sid of srv.
func captureSession(t testing.TB, srv *Server, sid string) *snapshot.Session {
	t.Helper()
	for _, snap := range srv.SnapshotSessions("node") {
		if snap.ID == sid {
			return snap
		}
	}
	t.Fatalf("session %s not captured", sid)
	return nil
}

// TestDrainForHandoffWaitsForPark: a drain must not report quiesced while an
// update is mid-pipeline, and must once it parks on a question.
func TestDrainForHandoffWaitsForPark(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	u, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srv.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain for handoff: %v", err)
	}
	// Quiesced means parked: the snapshot must carry the pending question.
	snaps := srv.SnapshotSessions("node")
	if len(snaps) != 1 || snaps[0].Pending == nil || snaps[0].Pending.Question == nil {
		t.Fatalf("post-drain snapshot = %+v, want a parked pending question", snaps)
	}
	// Drive the parked update to completion so the cleanup shutdown is
	// prompt (answering still works on a draining server).
	if _, err := c.PollUpdate(ctx, sid, u.ID, func(Question) (int, error) { return 1, nil }); err != nil {
		t.Fatalf("finish drained update: %v", err)
	}
}

// TestSnapshotMetricsCounters: capture and restore feed /metrics.
func TestSnapshotMetricsCounters(t *testing.T) {
	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	if _, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig}); err != nil {
		t.Fatalf("create: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	mA, err := cA.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if mA.SnapshottedSessions != 1 {
		t.Fatalf("snapshottedSessions = %d, want 1", mA.SnapshottedSessions)
	}
	_, cB := startServer(t, Options{Workers: 2})
	if _, err := cB.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := cB.RestoreSession(ctx, snaps[0]); err == nil {
		t.Fatal("double restore succeeded, want conflict")
	}
	mB, err := cB.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if mB.RestoredSessions != 1 || mB.RestoreFailures != 1 {
		t.Fatalf("restored/failures = %d/%d, want 1/1", mB.RestoredSessions, mB.RestoreFailures)
	}
}

// TestRestoreDivergentTranscriptFails: a snapshot whose delivered answer has
// the wrong kind for the question the re-executed pipeline asks fails the
// update with a divergence error. The update must not answer the wrong
// question, and must not park on a new one.
func TestRestoreDivergentTranscriptFails(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	snap := &snapshot.Session{
		ID:         "s-divergent",
		ConfigText: exampleConfig,
		NextUpdate: 1,
		Order:      []string{"u1"},
		Pending: &snapshot.PendingUpdate{
			ID: "u1", Intent: exampleIntent, Target: "ISP_OUT",
			// The walkthrough's first question is a route-map question.
			Answers: []disambig.Answer{{Kind: "acl", Question: "Input packet: ...", PreferNew: true}},
		},
	}
	if _, err := c.RestoreSession(ctx, snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	final, err := c.PollUpdate(ctx, snap.ID, "u1", func(q Question) (int, error) {
		return 0, fmt.Errorf("restored update posted question %d:\n%s", q.Seq, q.Text)
	})
	if err != nil {
		t.Fatalf("poll restored update: %v", err)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "diverged") {
		t.Fatalf("restored update = %+v, want failed with a divergence error", final)
	}
}

// TestRestoredUpdateJournalsFullTranscript: a journaling daemon that
// restores a parked update records its whole Q&A, the answer replayed from
// the snapshot and the one given after the handoff, so clarify-replay can
// re-run the record like any other.
func TestRestoredUpdateJournalsFullTranscript(t *testing.T) {
	srvA, cA := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := cA.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	u, err := cA.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	q1 := waitPendingQuestion(t, cA, sid)
	if err := cA.Answer(ctx, sid, q1.Seq, 1); err != nil {
		t.Fatalf("answer q1: %v", err)
	}
	q2 := waitPendingQuestion(t, cA, sid)
	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srvA.DrainForHandoff(dctx); err != nil {
		t.Fatalf("drain for handoff: %v", err)
	}
	snaps := srvA.SnapshotSessions("nodeA")
	if len(snaps) != 1 || snaps[0].Pending == nil || len(snaps[0].Pending.Answers) != 1 {
		t.Fatalf("snapshot = %+v, want one pending update with one answer", snaps)
	}
	if err := cA.Answer(ctx, sid, q2.Seq, 1); err != nil {
		t.Fatalf("unpark daemon A: %v", err)
	}

	dir := t.TempDir()
	jnl, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	_, cB := startServer(t, Options{Workers: 2, Journal: jnl})
	if _, err := cB.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored := waitPendingQuestion(t, cB, sid)
	if err := cB.Answer(ctx, sid, restored.Seq, 1); err != nil {
		t.Fatalf("answer restored question: %v", err)
	}
	final, err := cB.PollUpdate(ctx, sid, u.ID, func(Question) (int, error) { return 1, nil })
	if err != nil || final.Status != StatusDone {
		t.Fatalf("restored update did not finish: %v (%+v)", err, final)
	}

	recs, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rec *journal.Record
	for _, r := range recs {
		if r.Kind == journal.KindUpdate {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("journal holds no update record among %d records", len(recs))
	}
	if len(rec.Answers) != 2 || rec.Answers[0].Question != q1.Text || rec.Answers[1].Question != q2.Text {
		t.Fatalf("record answers = %+v, want the replayed q1 and the live q2", rec.Answers)
	}
	if out := replay.Record(ctx, rec, 0, replay.Options{}); out.Status != replay.StatusMatch {
		t.Fatalf("replay of the restored update = %+v, want a match", out)
	}
}
