package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/clarifynet/clarify/llm"
)

// fakeClock is a manually advanced clock for deterministic window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// step is one scripted breaker interaction.
type step struct {
	// advance moves the clock before acting.
	advance time.Duration
	// call performs Allow+Record(success); wantAllow is whether Allow must
	// admit it.
	call      bool
	success   bool
	wantAllow bool
	// wantState is checked after the step.
	wantState State
}

func TestBreakerTransitions(t *testing.T) {
	cfg := func(clk *fakeClock) BreakerConfig {
		return BreakerConfig{
			MinRequests: 4,
			Window:      10 * time.Second,
			Cooldown:    5 * time.Second,
			now:         clk.now,
		}
	}
	fail := func(st State) step { return step{call: true, success: false, wantAllow: true, wantState: st} }
	ok := func(st State) step { return step{call: true, success: true, wantAllow: true, wantState: st} }

	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "closed-to-open-at-threshold",
			steps: []step{
				ok(Closed), fail(Closed), fail(Closed),
				// 4th sample: 3/4 failures >= 0.5 trips it.
				fail(Open),
			},
		},
		{
			name: "below-min-requests-stays-closed",
			steps: []step{
				fail(Closed), fail(Closed), fail(Closed), // only 3 < MinRequests samples
			},
		},
		{
			name: "low-failure-rate-stays-closed",
			steps: []step{
				ok(Closed), ok(Closed), ok(Closed), ok(Closed), ok(Closed), ok(Closed), ok(Closed),
				fail(Closed), fail(Closed), fail(Closed), // 3/10 < 0.5
			},
		},
		{
			name: "open-shorts-during-cooldown-then-half-open",
			steps: []step{
				fail(Closed), fail(Closed), fail(Closed), fail(Open),
				{call: true, wantAllow: false, wantState: Open},
				{advance: 4 * time.Second, call: true, wantAllow: false, wantState: Open},
				// Past the cooldown the next call is the half-open probe.
				{advance: 2 * time.Second, call: true, success: true, wantAllow: true, wantState: Closed},
			},
		},
		{
			name: "half-open-probe-failure-reopens",
			steps: []step{
				fail(Closed), fail(Closed), fail(Closed), fail(Open),
				{advance: 6 * time.Second, call: true, success: false, wantAllow: true, wantState: Open},
				// Reopened: cooldown restarts, calls shed again.
				{call: true, wantAllow: false, wantState: Open},
			},
		},
		{
			name: "window-expiry-forgives-old-failures",
			steps: []step{
				fail(Closed), fail(Closed), fail(Closed),
				// The window (10s) rotates fully: old failures vanish, so the
				// next failure is 1 sample, below MinRequests.
				{advance: 11 * time.Second, call: true, success: false, wantAllow: true, wantState: Closed},
			},
		},
		{
			name: "closed-after-recovery-starts-clean",
			steps: []step{
				fail(Closed), fail(Closed), fail(Closed), fail(Open),
				{advance: 6 * time.Second, call: true, success: true, wantAllow: true, wantState: Closed},
				// A single failure right after closing must not re-trip: the
				// window was reset on close.
				fail(Closed), fail(Closed), fail(Closed),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			b := NewBreaker(cfg(clk))
			for i, st := range tc.steps {
				clk.advance(st.advance)
				if st.call {
					err := b.Allow()
					if got := err == nil; got != st.wantAllow {
						t.Fatalf("step %d: Allow() err=%v, want allow=%v", i, err, st.wantAllow)
					}
					if err == nil {
						b.Record(st.success)
					} else if !errors.Is(err, ErrOpen) {
						t.Fatalf("step %d: Allow() = %v, want ErrOpen", i, err)
					}
				}
				if got := b.State(); got != st.wantState {
					t.Fatalf("step %d: state = %v, want %v", i, got, st.wantState)
				}
			}
		})
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		MinRequests: 2, Window: 10 * time.Second,
		Cooldown: time.Second, now: clk.now,
	})
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	clk.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	// While the probe is in flight, further calls are shed.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second half-open call: err = %v, want ErrOpen", err)
	}
	// A cancelled probe frees the slot without deciding anything.
	b.RecordCanceled()
	if b.State() != HalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe slot not released: %v", err)
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerStateChangeHook(t *testing.T) {
	clk := newFakeClock()
	var transitions []string
	b := NewBreaker(BreakerConfig{
		MinRequests: 2, Window: 10 * time.Second, Cooldown: time.Second,
		OnStateChange: func(from, to State) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		},
		now: clk.now,
	})
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	clk.advance(2 * time.Second)
	b.Allow()
	b.Record(true)
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	st := b.Stats()
	if st.Opens != 1 || st.Probes != 1 {
		t.Errorf("stats = %+v, want 1 open and 1 probe", st)
	}
}

// TestBreakerConcurrentHammer drives one breaker from many goroutines under
// -race: the invariant checked is that it never deadlocks, never panics, and
// lands in a legal state with consistent counters.
func TestBreakerConcurrentHammer(t *testing.T) {
	b := NewBreaker(BreakerConfig{
		MinRequests: 5, Window: 50 * time.Millisecond, Cooldown: 5 * time.Millisecond,
	})
	const goroutines = 16
	const opsPer = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				if err := b.Allow(); err != nil {
					continue
				}
				switch rng.Intn(10) {
				case 0:
					b.RecordCanceled()
				case 1, 2, 3, 4:
					b.Record(false)
				default:
					b.Record(true)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := b.Stats()
	if st.State != "closed" && st.State != "open" && st.State != "half-open" {
		t.Fatalf("illegal final state %q", st.State)
	}
	if st.Opens < 0 || st.ShortCircuits < 0 || st.Probes < st.ProbeFailures {
		t.Fatalf("inconsistent counters: %+v", st)
	}
	// The breaker must still be operable after the storm.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if err := b.Allow(); err == nil {
			b.Record(true)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("breaker never admitted a call after the hammer")
}

// errClient always fails; okClient always succeeds.
type errClient struct{ err error }

func (c errClient) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, c.err
}

type okClient struct{ content string }

func (c okClient) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Content: c.content}, nil
}

// TestBreakerClientShortCircuits: once the primary's breaker trips, the
// stack stops calling the primary and counts each rejected call.
func TestBreakerClientShortCircuits(t *testing.T) {
	clk := newFakeClock()
	calls := 0
	s := NewStack(countingClient{calls: &calls, err: errors.New("down")}, BreakerConfig{
		MinRequests: 3, Window: 10 * time.Second,
		Cooldown: time.Minute, now: clk.now,
	}, nil)
	for i := 0; i < 10; i++ {
		s.Complete(context.Background(), llm.Request{})
	}
	if calls != 3 {
		t.Errorf("inner calls = %d, want 3 (rest short-circuited)", calls)
	}
	if got := s.Breaker().Stats().ShortCircuits; got != 7 {
		t.Errorf("short circuits = %d, want 7", got)
	}
}

// countingClient counts calls then fails.
type countingClient struct {
	calls *int
	err   error
}

func (c countingClient) Complete(context.Context, llm.Request) (llm.Response, error) {
	*c.calls++
	return llm.Response{}, c.err
}

// callerGivesUp cancels its caller's context during the call and fails with
// the context's error.
type callerGivesUp struct{ cancel context.CancelFunc }

func (c *callerGivesUp) Complete(ctx context.Context, _ llm.Request) (llm.Response, error) {
	c.cancel()
	return llm.Response{}, ctx.Err()
}

// TestBreakerClientIgnoresCallerCancellation: a primary call that fails
// because the caller gave up mid-call is charged neither to the breaker
// nor passed on to the fallback.
func TestBreakerClientIgnoresCallerCancellation(t *testing.T) {
	primary := &callerGivesUp{}
	fallbackCalls := 0
	s := NewStack(primary, BreakerConfig{MinRequests: 2, Window: 10 * time.Second},
		countingClient{calls: &fallbackCalls})
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		primary.cancel = cancel
		if _, err := s.Complete(ctx, llm.Request{}); err == nil {
			t.Fatal("want error from a call its caller cancelled")
		}
		cancel()
	}
	st := s.Breaker().Stats()
	if st.State != "closed" || st.WindowRequests != 0 {
		t.Errorf("cancelled calls charged to the backend: %+v", st)
	}
	if fallbackCalls != 0 {
		t.Errorf("fallback called %d times for cancelled updates, want 0", fallbackCalls)
	}
}
