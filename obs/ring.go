package obs

import "sync"

// Ring retains the most recent completed traces for debug endpoints. It is a
// fixed-size ring: the oldest trace is evicted when a new one arrives at
// capacity. It backs clarifyd's GET /debug/traces. All methods are safe for
// concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []*Trace // circular, len == capacity
	next  int      // slot the next trace lands in
	byID  map[string]*Trace
	total int64 // traces ever recorded
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

// Add records a completed trace, evicting the oldest at capacity.
func (r *Ring) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.buf[r.next]; old != nil {
		r.unindex(old)
	}
	r.buf[r.next] = t
	r.byID[t.ID] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// unindex drops a trace from the ID index — unless a newer trace with the
// same ID has taken the slot (several proxied requests continuing one
// propagated trace context legitimately share an ID). Callers hold the mutex.
func (r *Ring) unindex(t *Trace) {
	if cur, ok := r.byID[t.ID]; ok && cur == t {
		delete(r.byID, t.ID)
	}
}

// Get resolves a retained trace by ID.
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

// List snapshots the retained traces, newest first.
func (r *Ring) List() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		if t := r.buf[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}
