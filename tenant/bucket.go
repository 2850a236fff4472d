package tenant

import (
	"sync"
	"time"
)

// Bucket is a token-bucket rate limiter. Tokens refill continuously at
// rate/second up to burst; each Take consumes one token. A rate <= 0 means
// unlimited (Take always succeeds). Safe for concurrent use; the clock is
// injectable for tests.
type Bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewBucket builds a bucket that starts full. rate <= 0 disables limiting;
// burst <= 0 with a positive rate defaults to max(1, ceil(rate)).
func NewBucket(rate float64, burst int, now func() time.Time) *Bucket {
	if now == nil {
		now = time.Now
	}
	b := &Bucket{rate: rate, now: now}
	if rate > 0 {
		if burst <= 0 {
			burst = int(rate)
			if float64(burst) < rate {
				burst++
			}
			if burst < 1 {
				burst = 1
			}
		}
		b.burst = float64(burst)
		b.tokens = b.burst
		b.last = now()
	}
	return b
}

// Take consumes one token. When the bucket is empty it reports false and
// how long until one token will have refilled (a Retry-After hint, rounded
// up to the next millisecond and at least 1ms).
func (b *Bucket) Take() (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	wait := time.Duration(need / b.rate * float64(time.Second))
	if rem := wait % time.Millisecond; rem != 0 {
		wait += time.Millisecond - rem
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}
