package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"
)

// FuzzRequestBodies posts each input as the body of a session create, of a
// submit to an idle session, and of an answer to a session parked on its
// first question. No handler may panic, each answers only a status its
// doc comment lists (413 for an input over the route's bound), and every
// non-2xx body decodes as an ErrorResponse with a message. The sessions are
// deleted after each input, which cancels a parked update, and the input
// waits for its updates to end. The seeds are a valid body for each
// endpoint, empty and null objects, truncated JSON, wrong field types and
// out-of-range options:
//
//	go test -run '^$' -fuzz '^FuzzRequestBodies$' -fuzztime 15s ./server/
func FuzzRequestBodies(f *testing.F) {
	srv, c := startServer(f, Options{Workers: 2, QuestionTimeout: time.Second})
	for _, seed := range []string{
		`{"config":"route-map RM permit 10\n"}`,
		`{"intent":"` + exampleIntent + `","target":"ISP_OUT"}`,
		`{"seq":1,"option":1}`,
		`{"seq":1,"option":2}`,
		`{}`,
		`null`,
		``,
		`{"seq":1,"opt`,
		`{"config":"route-map RM perm`,
		`{"config":7}`,
		`{"config":"ip prefix-list P seq 10 permit not-a-prefix\n"}`,
		`{"intent":["x"],"target":false}`,
		`{"intent":"x"}`,
		`{"seq":"1","option":1}`,
		`{"seq":1,"option":3}`,
		`{"seq":1,"option":-1}`,
		`{"seq":99,"option":1}`,
	} {
		f.Add([]byte(seed))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		if status, resp := postBody(t, c.BaseURL+"/v1/sessions", body, 201, 400, 413, 422, 503); status == http.StatusCreated {
			var created CreateSessionResponse
			if err := json.Unmarshal(resp, &created); err != nil || created.ID == "" {
				t.Fatalf("create answered 201 with %q", resp)
			}
			srv.mgr.Delete(created.ID)
		}

		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		status, resp := postBody(t, c.BaseURL+"/v1/sessions/"+sid+"/updates", body, 202, 400, 409, 413, 429, 503)
		var u *update
		if status == http.StatusAccepted {
			var info UpdateInfo
			if err := json.Unmarshal(resp, &info); err != nil {
				t.Fatalf("submit answered 202 with %q", resp)
			}
			u = sessionUpdate(t, srv, sid, info.ID)
		}
		deleteAndWait(t, srv, sid, u)

		sid, err = c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		info, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		u = sessionUpdate(t, srv, sid, info.ID)
		waitPendingQuestion(t, c, sid)
		postBody(t, c.BaseURL+"/v1/sessions/"+sid+"/answer", body, 200, 400, 409, 413)
		deleteAndWait(t, srv, sid, u)
	})
}

// postBody posts body to url and returns the status and response body. The
// status must be one of want, and a non-2xx body must be an ErrorResponse
// with a message.
func postBody(t *testing.T, url string, body []byte, want ...int) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read reply: %v", url, err)
	}
	if !slices.Contains(want, resp.StatusCode) {
		t.Fatalf("POST %s with %q: status %d (%s), want one of %v", url, body, resp.StatusCode, data, want)
	}
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("POST %s with %q: status %d body %q is not an ErrorResponse", url, body, resp.StatusCode, data)
		}
	}
	return resp.StatusCode, data
}

// sessionUpdate returns the record of update uid of session sid.
func sessionUpdate(t *testing.T, srv *Server, sid, uid string) *update {
	t.Helper()
	sn, ok := srv.mgr.Get(sid)
	if !ok {
		t.Fatalf("session %s is not live", sid)
	}
	u := sn.getUpdate(uid)
	if u == nil {
		t.Fatalf("session %s has no update %s", sid, uid)
	}
	return u
}

// deleteAndWait deletes session sid and waits for its update u, if any, to
// end: deletion cancels a queued, running or parked update.
func deleteAndWait(t *testing.T, srv *Server, sid string, u *update) {
	t.Helper()
	srv.mgr.Delete(sid)
	if u == nil {
		return
	}
	select {
	case <-u.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("update %s of deleted session %s did not end", u.id, sid)
	}
}
