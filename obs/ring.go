package obs

import "sync"

// Ring retains the most recent completed traces for debug endpoints. It is a
// fixed-size ring: the oldest trace is evicted when a new one arrives at
// capacity. An optional tail-retention policy (SetRetention) gives evicted
// traces a second life: traces the keep function flags — errors, degraded
// runs, latency outliers — move into a separate kept ring instead of
// vanishing, so the interesting tail survives a flood of healthy traffic.
// It backs clarifyd's GET /debug/traces. All methods are safe for concurrent
// use.
type Ring struct {
	mu    sync.Mutex
	buf   []*Trace // circular, len == capacity
	next  int      // slot the next trace lands in
	byID  map[string]*Trace
	total int64 // traces ever recorded

	keep    func(*Trace) bool
	kept    []*Trace // circular, len == kept capacity; nil when no retention
	keptN   int      // slot the next kept trace lands in
	keptTot int64    // traces ever retained by the keep policy
}

// NewRing returns a trace ring holding up to capacity traces. A non-positive
// capacity panics — callers choose the default.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{
		buf:  make([]*Trace, capacity),
		byID: map[string]*Trace{},
	}
}

// SetRetention installs the tail-retention policy: when the main ring evicts
// a trace for which keep returns true, the trace moves into a secondary ring
// of the given capacity (and stays resolvable by ID) instead of being
// dropped. Call before the ring is in use; a nil keep disables retention.
func (r *Ring) SetRetention(capacity int, keep func(*Trace) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if capacity <= 0 || keep == nil {
		r.kept, r.keep, r.keptN = nil, nil, 0
		return
	}
	r.keep = keep
	r.kept = make([]*Trace, capacity)
	r.keptN = 0
}

// Add records a completed trace, evicting (or retaining) the oldest at
// capacity.
func (r *Ring) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.buf[r.next]; old != nil {
		r.evict(old)
	}
	r.buf[r.next] = t
	r.byID[t.ID] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// evict applies the retention policy to a trace leaving the main ring.
// Callers hold the mutex.
func (r *Ring) evict(old *Trace) {
	if r.keep != nil && r.keep(old) {
		if prev := r.kept[r.keptN]; prev != nil {
			r.unindex(prev)
		}
		r.kept[r.keptN] = old
		r.keptN = (r.keptN + 1) % len(r.kept)
		r.keptTot++
		return // still resolvable by ID
	}
	r.unindex(old)
}

// unindex drops a trace from the ID index — unless a newer trace with the
// same ID has taken the slot (several proxied requests continuing one
// propagated trace context legitimately share an ID). Callers hold the mutex.
func (r *Ring) unindex(t *Trace) {
	if cur, ok := r.byID[t.ID]; ok && cur == t {
		delete(r.byID, t.ID)
	}
}

// Get resolves a retained trace by ID, searching both rings.
func (r *Ring) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Total is the number of traces ever recorded.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// KeptTotal is the number of evicted traces rescued by the retention policy.
func (r *Ring) KeptTotal() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keptTot
}

// List snapshots the traces in the main ring, newest first.
func (r *Ring) List() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return listRing(r.buf, r.next)
}

// Kept snapshots the tail-retained traces, newest first.
func (r *Ring) Kept() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kept == nil {
		return nil
	}
	return listRing(r.kept, r.keptN)
}

// listRing walks a circular buffer backwards from the most recently filled
// slot, skipping empty slots.
func listRing(buf []*Trace, next int) []*Trace {
	out := make([]*Trace, 0, len(buf))
	for i := 0; i < len(buf); i++ {
		idx := (next - 1 - i + 2*len(buf)) % len(buf)
		if t := buf[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}
