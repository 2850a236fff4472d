package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/clarifynet/clarify"
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
	oracle   *asyncOracle // set while an update is queued or running
	// cfgText is the printed configuration after the last successful
	// update; handlers read this snapshot so they never touch the live
	// *ios.Config a worker may be replacing.
	cfgText string
	// tenant is the admission principal the session was created under
	// (X-Clarify-Tenant, after registry folding); its quotas and fair
	// share govern every submit on this session.
	tenant string
	// dialog is set once a pipeline run asks a disambiguation question;
	// from then on the session's submits ride the interactive lane.
	dialog bool
}

// setTenant records the session's admission principal (set once at create
// or restore, before the session serves traffic).
func (s *session) setTenant(name string) {
	s.mu.Lock()
	s.tenant = name
	s.mu.Unlock()
}

// tenantName reads the session's admission principal.
func (s *session) tenantName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant
}

// markInteractive flags the session as dialogue-engaged.
func (s *session) markInteractive() {
	s.mu.Lock()
	s.dialog = true
	s.mu.Unlock()
}

// interactive reports whether the session has engaged the disambiguation
// Q&A.
func (s *session) interactive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dialog
}

// setConfigText publishes a new printed-configuration snapshot.
func (s *session) setConfigText(text string) {
	s.mu.Lock()
	s.cfgText = text
	s.mu.Unlock()
}

// configText reads the current printed-configuration snapshot.
func (s *session) configText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfgText
}

// update is one submitted intent's lifecycle record.
type update struct {
	id string
	// intent and target are the Submit inputs, retained so an unfinished
	// update can be snapshotted and re-executed on another daemon.
	intent string
	target string
	// parent is the propagated W3C trace context (a clarify-lb forward
	// span), zero when the submission arrived without a traceparent header.
	parent obs.TraceParent

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

func (u *update) info() UpdateInfo {
	u.mu.Lock()
	defer u.mu.Unlock()
	status := u.status
	if status == StatusRunning && u.oracle != nil && u.oracle.Pending() != nil {
		status = StatusWaiting
	}
	return UpdateInfo{ID: u.id, Status: status, Error: u.errMsg, TraceID: u.traceID,
		Degraded: u.degraded, Result: u.result}
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
// only the first call wins (a late second finisher — e.g. a shed submission
// racing its own worker — must not double-close done or clobber the result).
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
		Tenant:      s.tenant,
	}
}

// beginUpdate reserves the session for one update, allocating its record and
// oracle. It fails when another update is already queued or running.
func (s *session) beginUpdate(oracle *asyncOracle, intentText, target string) (*update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy {
		return nil, fmt.Errorf("an update is already in progress on session %s", s.id)
	}
	s.busy = true
	s.oracle = oracle
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
	s.updates[u.id] = u
	s.order = append(s.order, u.id)
	return u, nil
}

// endUpdate releases the session after its update finished.
func (s *session) endUpdate() {
	s.mu.Lock()
	s.busy = false
	s.oracle = nil
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// pendingOracle returns the oracle of the in-flight update, or nil.
func (s *session) pendingOracle() *asyncOracle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oracle
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

// Delete removes a session, folding its counters into the retired total.
func (m *manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return false
	}
	delete(m.sessions, id)
	m.retire(s)
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
