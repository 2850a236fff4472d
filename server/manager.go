package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
)

// session is one hosted clarify.Session plus its serving state. Updates are
// serialized per session (the pipeline owns the config), so `busy` gates
// submissions; distinct sessions run concurrently on the worker pool.
type session struct {
	id   string
	sess *clarify.Session

	mu       sync.Mutex
	busy     bool
	lastUsed time.Time
	updates  map[string]*update
	order    []string // update IDs in submission order
	nextUpd  int
	current  *update // the queued or running update, nil when idle
	// cancel ends the queued or running update's context; see track.
	cancel context.CancelCauseFunc
	// cfg is the configuration the last create, restore or successful
	// update published, until its first read prints it into cfgText
	// (printConfig); nil after. Only GET …/config and a snapshot read the
	// text, so a configuration nobody reads is never printed. A published
	// *ios.Config is never modified (each update's result is a new one),
	// so a late print shows what the update produced.
	cfg     *ios.Config
	cfgText string
}

// setConfig publishes the configuration an update produced.
func (s *session) setConfig(cfg *ios.Config) {
	s.mu.Lock()
	s.cfg = cfg
	s.mu.Unlock()
}

// configText returns the current configuration's printed text.
func (s *session) configText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.printConfig()
}

// printConfig prints a newly published configuration into cfgText once and
// returns the text; callers hold s.mu.
func (s *session) printConfig() string {
	if s.cfg != nil {
		s.cfgText = s.cfg.Print()
		s.cfg = nil
	}
	return s.cfgText
}

// update is one submitted intent's lifecycle record.
type update struct {
	id string
	// intent and target are the Submit inputs, retained so an unfinished
	// update can be snapshotted and re-executed on another daemon.
	intent string
	target string
	// parent is the propagated W3C trace context (a caller's span, or one
	// clarify-lb minted that names no recorded span), zero when the
	// submission arrived without a traceparent header.
	parent obs.TraceParent
	// ctx is the update's lifetime: deleting its session cancels it with
	// errSessionDeleted. The deadline budget derives from it once a worker
	// picks the update up.
	ctx context.Context

	mu       sync.Mutex
	status   string
	errMsg   string
	traceID  string
	degraded bool
	result   *UpdateResultInfo
	oracle   *asyncOracle
	finished bool
	done     chan struct{}
}

// info returns the update's poll view.
func (u *update) info() UpdateInfo {
	info, _ := u.view()
	return info
}

// view returns the update's poll view, with the pending question inline
// while the pipeline is parked on one, and a channel closed when its oracle
// next posts a question (nil once the update is terminal).
func (u *update) view() (UpdateInfo, <-chan struct{}) {
	u.mu.Lock()
	defer u.mu.Unlock()
	info := UpdateInfo{ID: u.id, Status: u.status, Error: u.errMsg, TraceID: u.traceID,
		Degraded: u.degraded, Result: u.result}
	var posted <-chan struct{}
	if u.oracle != nil {
		var q *Question
		q, posted = u.oracle.watch()
		if q != nil && u.status == StatusRunning {
			info.Status, info.Question = StatusWaiting, q
		}
	}
	return info, posted
}

// await long-polls the update: it returns the view once the update is
// terminal or holds a question whose sequence number exceeds after, and
// otherwise when ctx ends, stop closes or wait elapses.
func (u *update) await(ctx context.Context, after int, stop <-chan struct{}, wait time.Duration) UpdateInfo {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		info, posted := u.view()
		if info.Terminal() || info.Question != nil && info.Question.Seq > after {
			return info
		}
		select {
		case <-u.done:
			continue
		case <-posted:
			continue
		case <-ctx.Done():
		case <-stop:
		case <-timer.C:
		}
		return u.info()
	}
}

// setTrace stamps the pipeline trace recorded for this update; the trace's
// span tree is retrievable at GET /debug/traces/{traceID} while retained.
func (u *update) setTrace(id string) {
	u.mu.Lock()
	u.traceID = id
	u.mu.Unlock()
}

// setDegraded stamps whether any LLM completion of this update was served by
// a fallback backend.
func (u *update) setDegraded(v bool) {
	u.mu.Lock()
	u.degraded = v
	u.mu.Unlock()
}

// setRunning marks the update running and returns the live oracle it
// runs against.
func (u *update) setRunning() *asyncOracle {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.status = StatusRunning
	return u.oracle
}

// finish records the terminal state and releases waiters. It is idempotent:
// only the first call wins (a late second finisher must not double-close
// done or clobber the result).
func (u *update) finish(res *clarify.UpdateResult, err error) {
	u.mu.Lock()
	if u.finished {
		u.mu.Unlock()
		return
	}
	u.finished = true
	if err != nil {
		u.status, u.errMsg = StatusFailed, err.Error()
	} else {
		u.status, u.result = StatusDone, newUpdateResultInfo(res)
	}
	u.oracle = nil
	u.mu.Unlock()
	close(u.done)
}

// touch refreshes the idle clock.
func (s *session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

func (s *session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		ID:          s.id,
		Busy:        s.busy,
		Updates:     len(s.updates),
		IdleSeconds: time.Since(s.lastUsed).Seconds(),
	}
}

// errSessionDeleted fails the update of a session deleted while the update
// was queued or running.
var errSessionDeleted = errors.New("session deleted")

// track gives u a lifetime context derived from base and keeps its cancel,
// so deleting the session cancels u. Callers hold s.mu or own s alone.
func (s *session) track(base context.Context, u *update) {
	u.ctx, s.cancel = context.WithCancelCause(base)
}

// beginUpdate reserves the session for one update, allocating its record and
// oracle, with a lifetime derived from base. It fails when another update is
// already queued or running.
func (s *session) beginUpdate(base context.Context, oracle *asyncOracle, intentText, target string) (*update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy {
		return nil, fmt.Errorf("an update is already in progress on session %s", s.id)
	}
	s.busy = true
	s.lastUsed = time.Now()
	s.nextUpd++
	u := &update{
		id:     fmt.Sprintf("u%d", s.nextUpd),
		intent: intentText,
		target: target,
		status: StatusQueued,
		oracle: oracle,
		done:   make(chan struct{}),
	}
	s.current = u
	s.track(base, u)
	s.updates[u.id] = u
	s.order = append(s.order, u.id)
	return u, nil
}

// endUpdate releases the session and then publishes u's outcome, under one
// hold of the session lock. A client that reads u as terminal may submit
// its next update at once without a 409, and a snapshot never finds the
// session idle while u is still unfinished.
func (s *session) endUpdate(u *update, res *clarify.UpdateResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy = false
	s.current = nil
	s.abort(nil) // releases the finished update's context
	s.lastUsed = time.Now()
	u.finish(res, err)
}

// abort cancels the queued or running update's context with cause, if one
// is tracked; callers hold s.mu.
func (s *session) abort(cause error) {
	if s.cancel != nil {
		s.cancel(cause)
		s.cancel = nil
	}
}

// inFlight returns the queued or running update and its oracle, read under
// one hold of the lock, or nils.
func (s *session) inFlight() (*update, *asyncOracle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current, s.currentOracle()
}

// currentOracle returns the in-flight update's oracle, or nil; callers hold
// s.mu. An update's oracle changes only in finish, which endUpdate calls
// under s.mu after clearing current.
func (s *session) currentOracle() *asyncOracle {
	if s.current == nil {
		return nil
	}
	return s.current.oracle
}

func (s *session) getUpdate(id string) *update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updates[id]
}

// manager owns the session table: creation against a max-session cap,
// lookup, deletion, and a janitor that evicts sessions idle past the TTL.
// Counters from dead sessions are folded into `retired` so /metrics stays
// cumulative.
type manager struct {
	ttl time.Duration
	max int

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	retired  clarify.Stats
	evicted  int64
	// tombs remembers recently dead session IDs and why they died, so a
	// lookup can answer 410 Gone ("evicted") instead of an indistinguishable
	// 404 — the signal a balancer needs to drop a stale affinity pin rather
	// than retry the dead ID. Bounded FIFO via tombOrder.
	tombs     map[string]string
	tombOrder []string

	stopOnce sync.Once
	stopCh   chan struct{}
}

// maxTombstones bounds the dead-session memory; beyond it the oldest
// tombstones decay back to plain 404s.
const maxTombstones = 4096

// ReasonEvicted is the tombstone reason for idle-TTL eviction.
const ReasonEvicted = "evicted"

func newManager(max int, ttl, sweepEvery time.Duration) *manager {
	if max <= 0 {
		max = 1024
	}
	if ttl <= 0 {
		ttl = 30 * time.Minute
	}
	if sweepEvery <= 0 {
		sweepEvery = ttl / 4
		if sweepEvery > time.Minute {
			sweepEvery = time.Minute
		}
	}
	m := &manager{ttl: ttl, max: max, sessions: map[string]*session{},
		tombs: map[string]string{}, stopCh: make(chan struct{})}
	go m.janitor(sweepEvery)
	return m
}

// Create registers a new session; it fails when the cap is reached.
func (m *manager) Create(sess *clarify.Session) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= m.max {
		return nil, fmt.Errorf("session cap reached (%d live sessions)", len(m.sessions))
	}
	m.nextID++
	s := &session{
		id:       fmt.Sprintf("s%d-%s", m.nextID, randHex(4)),
		sess:     sess,
		lastUsed: time.Now(),
		updates:  map[string]*update{},
	}
	m.sessions[s.id] = s
	return s, nil
}

// Get looks a session up and refreshes its idle clock.
func (m *manager) Get(id string) (*session, bool) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// Delete removes a session, folding its counters into the retired total,
// and cancels its queued or running update.
func (m *manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return false
	}
	delete(m.sessions, id)
	m.retire(s)
	s.mu.Lock()
	s.abort(errSessionDeleted)
	s.mu.Unlock()
	return true
}

// bury records why a session died; callers hold m.mu.
func (m *manager) bury(id, reason string) {
	if _, ok := m.tombs[id]; !ok {
		m.tombOrder = append(m.tombOrder, id)
	}
	m.tombs[id] = reason
	for len(m.tombOrder) > maxTombstones {
		delete(m.tombs, m.tombOrder[0])
		m.tombOrder = m.tombOrder[1:]
	}
}

// Tombstone reports whether id belonged to a dead session and why it died.
func (m *manager) Tombstone(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reason, ok := m.tombs[id]
	return reason, ok
}

// Insert adds a rehydrated session under its preserved ID, subject to the
// cap. The ID colliding with a live session is a conflict (the snapshot was
// already restored, or the peer never lost it); a tombstone for the ID is
// cleared — the session is alive again. The caller must have stamped a
// fresh lastUsed so the janitor cannot evict the session mid-restore.
func (m *manager) Insert(s *session) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[s.id]; ok {
		return fmt.Errorf("%w: %s", errSessionExists, s.id)
	}
	if len(m.sessions) >= m.max {
		return fmt.Errorf("session cap reached (%d live sessions)", len(m.sessions))
	}
	delete(m.tombs, s.id)
	m.sessions[s.id] = s
	return nil
}

// retire accumulates a dead session's stats; callers hold m.mu.
func (m *manager) retire(s *session) {
	st := s.sess.Stats()
	m.retired.LLMCalls += st.LLMCalls
	m.retired.Disambiguations += st.Disambiguations
	m.retired.Retries += st.Retries
	m.retired.Punts += st.Punts
	m.retired.Updates += st.Updates
}

// List snapshots all live sessions.
func (m *manager) List() []*session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// Len is the live-session count.
func (m *manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Evicted is the TTL-eviction count.
func (m *manager) Evicted() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// CumulativeStats sums pipeline counters over live and retired sessions.
func (m *manager) CumulativeStats() clarify.Stats {
	m.mu.Lock()
	live := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	total := m.retired
	m.mu.Unlock()
	for _, s := range live {
		st := s.sess.Stats()
		total.LLMCalls += st.LLMCalls
		total.Disambiguations += st.Disambiguations
		total.Retries += st.Retries
		total.Punts += st.Punts
		total.Updates += st.Updates
	}
	return total
}

// Sweep evicts sessions idle past the TTL (busy sessions are exempt: a
// parked disambiguation question keeps its session alive until the question
// itself times out). It returns the number evicted.
func (m *manager) Sweep() int {
	cutoff := time.Now().Add(-m.ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := !s.busy && s.lastUsed.Before(cutoff)
		s.mu.Unlock()
		if idle {
			delete(m.sessions, id)
			m.retire(s)
			m.bury(id, ReasonEvicted)
			m.evicted++
			n++
		}
	}
	return n
}

func (m *manager) janitor(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Sweep()
		case <-m.stopCh:
			return
		}
	}
}

// Stop terminates the janitor goroutine.
func (m *manager) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
}

func randHex(nBytes int) string {
	b := make([]byte, nBytes)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failure is unrecoverable; fall back to a counter-only
		// ID rather than crash the daemon.
		return "0000"
	}
	return hex.EncodeToString(b)
}
