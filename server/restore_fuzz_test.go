package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/snapshot"
)

// FuzzRestoreSession feeds snapshot JSON, as a restore body or a snapshot
// file carries it, to RestoreSession under a fresh session ID. Restore must
// not panic, and a session it accepts must not hand out an update ID its
// history already holds. The seeds are a captured idle session, a captured
// session parked on a question, and the idle one with its next update ID
// set back to 0:
//
//	go test -run '^$' -fuzz '^FuzzRestoreSession$' -fuzztime 15s ./server/
func FuzzRestoreSession(f *testing.F) {
	srv, c := startServer(f, Options{Workers: 2, QuestionTimeout: time.Second})
	ctx := context.Background()

	idleID, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		f.Fatalf("create: %v", err)
	}
	runWalkthrough(f, c, idleID)
	parkedID, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		f.Fatalf("create: %v", err)
	}
	if _, err := c.SubmitAsync(ctx, parkedID, exampleIntent, "ISP_OUT"); err != nil {
		f.Fatalf("submit: %v", err)
	}
	waitPendingQuestion(f, c, parkedID)
	for _, snap := range []*snapshot.Session{
		captureSession(f, srv, idleID),
		captureSession(f, srv, parkedID),
		staleNextUpdate(f, srv, c),
	} {
		data, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, sn := range srv.mgr.List() {
		srv.mgr.Delete(sn.id)
	}

	var seq atomic.Int64
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap snapshot.Session
		if json.Unmarshal(data, &snap) != nil {
			t.Skip("not a session snapshot")
		}
		snap.ID = fmt.Sprintf("fuzz-%d", seq.Add(1))
		if srv.RestoreSession(&snap) != nil {
			return
		}
		defer srv.restoreWG.Wait() // a restored pending update ends once deleted
		defer srv.mgr.Delete(snap.ID)
		sn, ok := srv.mgr.Get(snap.ID)
		if !ok {
			t.Fatal("restored session is not live")
		}
		sn.mu.Lock()
		defer sn.mu.Unlock()
		next := fmt.Sprintf("u%d", sn.nextUpd+1)
		if sn.updates[next] != nil {
			t.Fatalf("next update ID %s names a restored record", next)
		}
		for _, id := range sn.order {
			if id == next {
				t.Fatalf("next update ID %s is already in the order %v", next, sn.order)
			}
		}
	})
}
