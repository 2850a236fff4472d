package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned (without touching the backend) while the circuit
// breaker is open: the primary endpoint has been failing and calls are
// short-circuited until the cooldown elapses.
var ErrOpen = errors.New("resilience: circuit breaker is open")

// State is a circuit breaker state.
type State int32

// Breaker states. Closed passes calls through, Open short-circuits them,
// HalfOpen lets a single probe through to test recovery.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The breaker's fixed settings: the failure fraction of the rolling window
// that trips it, and the number of slices the window is divided into, which
// expire individually. One half-open probe success closes it again.
const (
	failureRate   = 0.5
	windowBuckets = 10
)

// BreakerConfig tunes a Breaker. The zero value selects the defaults noted
// on each field.
type BreakerConfig struct {
	// MinRequests is the minimum window sample size before the rate is
	// evaluated (default 5), so one failed call out of one cannot trip it.
	MinRequests int
	// Window is the rolling failure-rate window (default 30s).
	Window time.Duration
	// Cooldown is how long an open breaker rejects calls before allowing a
	// half-open probe (default 10s).
	Cooldown time.Duration
	// OnStateChange, when non-nil, is called on every transition, under the
	// breaker's lock; keep it fast.
	OnStateChange func(from, to State)

	// now overrides the clock in tests.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.MinRequests <= 0 {
		c.MinRequests = 5
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// bucket is one time slice of the rolling window.
type bucket struct {
	successes int64
	failures  int64
}

// Breaker is a circuit breaker over an unreliable dependency. Callers pair
// every successful Allow with exactly one Record (or RecordCanceled); a
// Stack does this for its primary. All methods are safe for concurrent use.
type Breaker struct {
	cfg        BreakerConfig
	bucketSpan time.Duration

	mu          sync.Mutex
	state       State
	buckets     []bucket
	bucketIdx   int
	bucketStart time.Time
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	opens         int64
	shortCircuits int64
	probes        int64
	probeFails    int64
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{
		cfg:        cfg,
		bucketSpan: cfg.Window / windowBuckets,
		buckets:    make([]bucket, windowBuckets),
	}
	b.bucketStart = cfg.now()
	return b
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(b.cfg.now())
	return b.state
}

// Allow reports whether a call may proceed. It returns nil when the call is
// admitted (possibly as the half-open probe) and ErrOpen when it must be
// short-circuited. Every nil return must be matched by one Record or
// RecordCanceled.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	b.advanceLocked(now)
	switch b.state {
	case Closed:
		return nil
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.shortCircuits++
			return ErrOpen
		}
		b.transitionLocked(HalfOpen)
		b.probing = true
		b.probes++
		return nil
	default: // HalfOpen
		if b.probing {
			b.shortCircuits++
			return ErrOpen
		}
		b.probing = true
		b.probes++
		return nil
	}
}

// Record reports the outcome of an admitted call and drives transitions:
// closed trips open at the failure-rate threshold, a half-open probe success
// closes the breaker and a probe failure reopens it.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	b.advanceLocked(now)
	switch b.state {
	case Closed:
		bk := &b.buckets[b.bucketIdx]
		if success {
			bk.successes++
		} else {
			bk.failures++
			if succ, fail := b.windowLocked(); succ+fail >= int64(b.cfg.MinRequests) &&
				float64(fail)/float64(succ+fail) >= failureRate {
				b.tripLocked(now)
			}
		}
	case HalfOpen:
		b.probing = false
		if !success {
			b.probeFails++
			b.tripLocked(now)
			return
		}
		b.resetLocked(now)
		b.transitionLocked(Closed)
	case Open:
		// A call admitted before the trip finished after it; the window is
		// no longer consulted, so the outcome only matters for stats.
		if !success {
			b.buckets[b.bucketIdx].failures++
		} else {
			b.buckets[b.bucketIdx].successes++
		}
	}
}

// RecordCanceled releases an admitted call whose outcome says nothing about
// the backend (the caller's context was cancelled mid-call): it frees the
// half-open probe slot without counting a success or failure.
func (b *Breaker) RecordCanceled() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// tripLocked moves to Open and stamps the cooldown clock.
func (b *Breaker) tripLocked(now time.Time) {
	b.openedAt = now
	b.opens++
	b.transitionLocked(Open)
}

// resetLocked clears the rolling window (a freshly closed breaker starts
// from a clean slate).
func (b *Breaker) resetLocked(now time.Time) {
	for i := range b.buckets {
		b.buckets[i] = bucket{}
	}
	b.bucketIdx = 0
	b.bucketStart = now
}

// transitionLocked changes state and fires the hook.
func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// advanceLocked rotates the rolling window up to now, zeroing buckets that
// fell out of it.
func (b *Breaker) advanceLocked(now time.Time) {
	elapsed := now.Sub(b.bucketStart)
	if elapsed < b.bucketSpan {
		return
	}
	steps := int(elapsed / b.bucketSpan)
	if steps > len(b.buckets) {
		steps = len(b.buckets)
	}
	for i := 0; i < steps; i++ {
		b.bucketIdx = (b.bucketIdx + 1) % len(b.buckets)
		b.buckets[b.bucketIdx] = bucket{}
	}
	b.bucketStart = b.bucketStart.Add(elapsed / b.bucketSpan * b.bucketSpan)
}

// windowLocked sums the rolling window.
func (b *Breaker) windowLocked() (successes, failures int64) {
	for _, bk := range b.buckets {
		successes += bk.successes
		failures += bk.failures
	}
	return successes, failures
}

// BreakerStats is the breaker's /metrics snapshot.
type BreakerStats struct {
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// Opens counts closed→open and half-open→open transitions.
	Opens int64 `json:"opens"`
	// ShortCircuits counts calls rejected with ErrOpen.
	ShortCircuits int64 `json:"shortCircuits"`
	// Probes counts half-open probe calls admitted.
	Probes int64 `json:"probes"`
	// ProbeFailures counts probes that reopened the breaker.
	ProbeFailures int64 `json:"probeFailures"`
	// WindowRequests / WindowFailures describe the current rolling window.
	WindowRequests int64 `json:"windowRequests"`
	WindowFailures int64 `json:"windowFailures"`
}

// Stats snapshots the breaker.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(b.cfg.now())
	succ, fail := b.windowLocked()
	return BreakerStats{
		State:          b.state.String(),
		Opens:          b.opens,
		ShortCircuits:  b.shortCircuits,
		Probes:         b.probes,
		ProbeFailures:  b.probeFails,
		WindowRequests: succ + fail,
		WindowFailures: fail,
	}
}
