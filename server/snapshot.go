package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/snapshot"
	"github.com/clarifynet/clarify/symbolic"
)

// Sentinel errors RestoreSession wraps so the HTTP handler (and a restoring
// daemon) can map failures onto status codes.
var (
	// errSessionExists: the ID already names a live session here (the
	// snapshot was restored twice, or the peer never lost the session).
	errSessionExists = errors.New("session already exists")
	// errDraining: this daemon is shutting down and cannot adopt sessions.
	errDraining = errors.New("server is draining")
	// errBadSnapshot: the snapshot is structurally invalid or fails
	// integrity checks (config unparseable, fingerprint mismatch).
	errBadSnapshot = errors.New("invalid session snapshot")
)

// DrainForHandoff prepares the session table for capture: new submissions
// are already rejected (draining), and the call waits until no update is
// mid-pipeline — every in-flight update is parked on a disambiguation
// question and the submission queue is empty — or ctx expires. A parked
// update is safe to snapshot (its intent + answer transcript fully
// determine its re-execution); an update mid-LLM-call is not, so we wait
// for it to either finish or park.
func (s *Server) DrainForHandoff(ctx context.Context) error {
	s.draining.Store(true)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if s.quiescedForSnapshot() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain for handoff: %w", ctx.Err())
		case <-t.C:
		}
	}
}

// quiescedForSnapshot reports whether every in-flight update is parked on a
// question (snapshot-safe) and nothing is queued.
func (s *Server) quiescedForSnapshot() bool {
	if s.pool.Depth() > 0 {
		return false
	}
	for _, sn := range s.mgr.List() {
		if o := sn.pendingOracle(); o != nil && o.Pending() == nil {
			return false
		}
	}
	return true
}

// SnapshotSessions captures every live session for handoff. Call after
// DrainForHandoff; sessions whose update is still mid-pipeline are captured
// anyway (their pending update re-executes from the transcript), so a
// too-short drain budget degrades to a slower restore, not data loss. node
// labels the capturing daemon.
func (s *Server) SnapshotSessions(node string) []*snapshot.Session {
	live := s.mgr.List()
	out := make([]*snapshot.Session, 0, len(live))
	now := time.Now()
	for _, sn := range live {
		snap := sn.capture(node, now)
		s.snapshotted.Add(1)
		s.journalLifecycle(journal.KindSessionSnapshot, snap)
		out = append(out, snap)
	}
	return out
}

// capture externalizes one session's serving state.
func (sn *session) capture(node string, now time.Time) *snapshot.Session {
	sn.mu.Lock()
	out := &snapshot.Session{
		Schema:      snapshot.SchemaVersion,
		ID:          sn.id,
		CapturedAt:  now,
		Node:        node,
		Tenant:      sn.tenant,
		ConfigText:  sn.cfgText,
		MaxAttempts: sn.sess.MaxAttempts,
		EnableReuse: sn.sess.EnableReuse,
		IdleSeconds: now.Sub(sn.lastUsed).Seconds(),
		NextUpdate:  sn.nextUpd,
		Order:       append([]string(nil), sn.order...),
	}
	out.SkipVerification = sn.sess.SkipVerification
	updates := make([]*update, 0, len(sn.order))
	for _, id := range sn.order {
		if u := sn.updates[id]; u != nil {
			updates = append(updates, u)
		}
	}
	oracle := sn.oracle
	sn.mu.Unlock()

	out.Stats = sn.sess.Stats()
	if cfg, err := ios.Parse(out.ConfigText); err == nil {
		out.Fingerprint = symbolic.Fingerprint(cfg)
	}
	for _, u := range updates {
		info := u.info()
		if info.Terminal() {
			rec := snapshot.UpdateRecord{
				ID: info.ID, Status: info.Status, Error: info.Error,
				TraceID: info.TraceID, Degraded: info.Degraded,
			}
			if info.Result != nil {
				if data, err := json.Marshal(info.Result); err == nil {
					rec.Result = data
				}
			}
			out.Updates = append(out.Updates, rec)
			continue
		}
		// The in-flight update: its intent plus the answers delivered so
		// far are everything a successor needs to re-execute and re-park it.
		pending := &snapshot.PendingUpdate{ID: info.ID, Intent: u.intent, Target: u.target}
		if u.parent.Valid() {
			pending.TraceParent = u.parent.String()
		}
		if oracle != nil {
			pending.Answers = oracle.transcript()
			if q := oracle.Pending(); q != nil {
				pending.Question = &snapshot.Question{Seq: q.Seq, Kind: q.Kind, Text: q.Text}
			}
		}
		out.Pending = pending
	}
	return out
}

// RestoreSession rehydrates one externalized session under its original ID:
// history becomes pollable again, counters resume, and a pending update is
// re-executed with its recorded answers so it re-parks on the same question
// with the same sequence number. The restored session gets a fresh idle
// clock — it must never materialize already past the janitor's cutoff.
func (s *Server) RestoreSession(snap *snapshot.Session) error {
	if s.draining.Load() {
		s.restoreFailures.Add(1)
		return errDraining
	}
	if err := snap.Validate(); err != nil {
		s.restoreFailures.Add(1)
		return fmt.Errorf("%w: %v", errBadSnapshot, err)
	}
	cfg, err := ios.Parse(snap.ConfigText)
	if err != nil {
		s.restoreFailures.Add(1)
		return fmt.Errorf("%w: parse config: %v", errBadSnapshot, err)
	}
	if snap.Fingerprint != "" {
		if fp := symbolic.Fingerprint(cfg); fp != snap.Fingerprint {
			s.restoreFailures.Add(1)
			return fmt.Errorf("%w: config fingerprint mismatch (snapshot %s, recomputed %s)",
				errBadSnapshot, snap.Fingerprint, fp)
		}
	}

	cs := &clarify.Session{
		Client:           s.opts.NewClient(),
		Config:           cfg,
		MaxAttempts:      snap.MaxAttempts,
		EnableReuse:      snap.EnableReuse,
		SkipVerification: snap.SkipVerification,
		SpaceCache:       s.spaces,
		Journal:          s.opts.Journal,
		JournalSession:   snap.ID,
	}
	cs.RestoreStats(snap.Stats)
	// Re-bind the session to its tenant on this daemon's registry; a
	// malformed or pre-tenancy name folds to the default tenant.
	tn := s.tenants.Get(snap.Tenant)
	sn := &session{
		id:       snap.ID,
		sess:     cs,
		lastUsed: time.Now(), // fresh idle clock by design
		updates:  map[string]*update{},
		order:    append([]string(nil), snap.Order...),
		nextUpd:  snap.NextUpdate,
		cfgText:  cfg.Print(),
		tenant:   tn.Name(),
	}
	for _, rec := range snap.Updates {
		u := &update{
			id: rec.ID, intent: "", target: "",
			status: rec.Status, errMsg: rec.Error,
			traceID: rec.TraceID, degraded: rec.Degraded,
			finished: true, done: make(chan struct{}),
		}
		close(u.done)
		if len(rec.Result) > 0 {
			res := new(UpdateResultInfo)
			if json.Unmarshal(rec.Result, res) == nil {
				u.result = res
			}
		}
		sn.updates[u.id] = u
	}

	var runRestored func()
	if p := snap.Pending; p != nil {
		oracle := newRestoredOracle(s.baseCtx, s.opts.QuestionTimeout, p.Answers)
		u := &update{
			id: p.ID, intent: p.Intent, target: p.Target,
			status: StatusQueued, oracle: oracle, done: make(chan struct{}),
		}
		if tp, ok := obs.ParseTraceParent(p.TraceParent); ok {
			// The re-executed update keeps its fleet trace ID, so the trace a
			// client was handed before the handoff resolves on the successor.
			u.parent = tp
		}
		sn.updates[u.id] = u
		found := false
		for _, id := range sn.order {
			if id == u.id {
				found = true
				break
			}
		}
		if !found {
			sn.order = append(sn.order, u.id)
		}
		sn.busy = true
		sn.oracle = oracle
		// A pending update with dialogue history keeps its interactive
		// standing on the successor.
		sn.dialog = p.Question != nil || len(p.Answers) > 0
		// The update held an in-flight slot on its original daemon; it
		// re-enters this registry's accounting without a bucket charge.
		tn.AdmitRestored()
		runRestored = func() { s.runUpdate(sn, u, tn, p.Answers) }
	}

	if err := s.mgr.Insert(sn); err != nil {
		s.restoreFailures.Add(1)
		return err
	}
	s.restored.Add(1)
	s.journalLifecycle(journal.KindSessionRestore, sn.capture("", time.Now()))
	if runRestored != nil {
		// Re-execution runs off the worker pool: it is restoration work, not
		// new load, and it must not be shed by a full queue. Shutdown waits
		// for these goroutines alongside the pool.
		s.restoreWG.Add(1)
		go func() {
			defer s.restoreWG.Done()
			runRestored()
		}()
	}
	return nil
}

// journalLifecycle appends a session lifecycle event to the flight
// recorder, so a journal scan shows where every session lived and moved.
func (s *Server) journalLifecycle(kind string, snap *snapshot.Session) {
	if s.opts.Journal == nil {
		return
	}
	s.opts.Journal.Append(&journal.Record{
		Kind:              kind,
		Time:              time.Now(),
		Session:           snap.ID,
		BaseConfig:        snap.ConfigText,
		ConfigFingerprint: snap.Fingerprint,
	})
}

// handleRestoreSession is the admin endpoint a draining peer (or a restart
// script replaying a snapshot directory) PUTs externalized sessions to.
func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	// Snapshots carry a full config plus update history; allow slack over
	// the config bound.
	body, err := io.ReadAll(io.LimitReader(r.Body, 2*s.opts.MaxConfigBytes+(1<<20)))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error(), 0)
		return
	}
	var snap snapshot.Session
	if err := decodeStrict(body, &snap); err != nil {
		writeError(w, http.StatusBadRequest, "decode snapshot: "+err.Error(), 0)
		return
	}
	id := r.PathValue("id")
	if snap.ID == "" {
		snap.ID = id
	} else if snap.ID != id {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("snapshot session ID %q does not match path ID %q", snap.ID, id), 0)
		return
	}
	if err := s.RestoreSession(&snap); err != nil {
		switch {
		case errors.Is(err, errSessionExists):
			writeError(w, http.StatusConflict, err.Error(), 0)
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
		case errors.Is(err, errBadSnapshot):
			writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		default:
			// Session cap and the like: the caller should try another peer.
			writeError(w, http.StatusServiceUnavailable, err.Error(), 1)
		}
		return
	}
	writeJSON(w, http.StatusCreated, RestoreSessionResponse{ID: snap.ID, Pending: snap.Pending != nil})
}
