package lb

import (
	"sync"
	"time"
)

// affinityTable pins each session ID to the backend that holds it. Session
// IDs are minted by the replicas and survive a handoff, so the backend
// cannot be derived from the ID: the table is seeded at create and restore
// time and by the lookup of a session it has never seen (the balancer
// restarted, or another one placed the session), and consulted on every
// follow-up request. Entries die with their session — removed on DELETE
// and on 410 Gone — and are swept once idle past the TTL; a swept session
// is found again by the next lookup.
type affinityTable struct {
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*affinityEntry
	evicted int64
	misses  int64

	stopOnce sync.Once
	stopCh   chan struct{}
}

type affinityEntry struct {
	b        *Backend
	lastUsed time.Time
}

func newAffinityTable(ttl, sweepEvery time.Duration) *affinityTable {
	t := &affinityTable{ttl: ttl, entries: map[string]*affinityEntry{}, stopCh: make(chan struct{})}
	go t.janitor(sweepEvery)
	return t
}

// Put pins a session to the backend holding it.
func (t *affinityTable) Put(id string, b *Backend) {
	t.mu.Lock()
	t.entries[id] = &affinityEntry{b: b, lastUsed: time.Now()}
	t.mu.Unlock()
}

// Get resolves a session's backend and refreshes its idle clock; a miss is
// counted (the caller looks the session up).
func (t *affinityTable) Get(id string) *Backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		t.misses++
		return nil
	}
	e.lastUsed = time.Now()
	return e.b
}

// Remove drops a session's pin (its DELETE succeeded, or its replica
// answered 410 Gone) and reports whether there was one.
func (t *affinityTable) Remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[id]
	delete(t.entries, id)
	return ok
}

// Len is the live pin count.
func (t *affinityTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Misses is the count of Gets that found no pin (session lookups).
func (t *affinityTable) Misses() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.misses
}

// Evicted is the TTL-eviction count.
func (t *affinityTable) Evicted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Sweep evicts pins idle past the TTL; returns the number evicted.
func (t *affinityTable) Sweep() int {
	cutoff := time.Now().Add(-t.ttl)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, e := range t.entries {
		if e.lastUsed.Before(cutoff) {
			delete(t.entries, id)
			t.evicted++
			n++
		}
	}
	return n
}

func (t *affinityTable) janitor(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.Sweep()
		case <-t.stopCh:
			return
		}
	}
}

// Stop terminates the janitor goroutine.
func (t *affinityTable) Stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
}
