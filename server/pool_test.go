package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCloseBoundedDrain: Close with an expired deadline purges the
// queued backlog — running each accepted job's drop callback — instead of
// wedging shutdown behind a saturated queue.
func TestPoolCloseBoundedDrain(t *testing.T) {
	p := newPool(1, 8, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-release }, nil); err != nil {
		t.Fatalf("blocker rejected: %v", err)
	}
	<-started

	var dropped int64
	for i := 0; i < 8; i++ {
		err := p.Submit(func() {
			t.Error("queued job ran after purge")
		}, func() {
			atomic.AddInt64(&dropped, 1)
		})
		if err != nil {
			t.Fatalf("queued submit %d rejected: %v", i, err)
		}
	}
	if err := p.Submit(func() {}, nil); err != errQueueFull {
		t.Fatalf("submit past capacity = %v, want %v", err, errQueueFull)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Close(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("Close took %s, want bounded by the 50ms deadline", e)
	}
	if n := atomic.LoadInt64(&dropped); n != 8 {
		t.Fatalf("purged %d jobs, want 8", n)
	}
	if p.Depth() != 0 {
		t.Fatalf("queue depth after purge = %d, want 0", p.Depth())
	}
	close(release)
	p.Wait()
}

// TestPoolSubmitRacesClose: submits racing Close never panic on the closed
// queue, every refusal after Close names the drain, and every accepted job
// either runs or is dropped by the purge — exactly once.
func TestPoolSubmitRacesClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := newPool(2, 4, nil)
		var ran, dropped, accepted atomic.Int64
		var wg sync.WaitGroup
		begin := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				for i := 0; i < 50; i++ {
					err := p.Submit(func() { ran.Add(1) }, func() { dropped.Add(1) })
					switch err {
					case nil:
						accepted.Add(1)
					case errQueueFull:
					case errPoolClosed:
						return
					default:
						t.Errorf("Submit = %v", err)
						return
					}
				}
			}()
		}
		ctx, cancel := context.WithCancel(context.Background())
		if round%2 == 1 {
			// An expired budget makes Close purge whatever is still queued.
			cancel()
		}
		close(begin)
		p.Close(ctx)
		cancel()
		wg.Wait()
		p.Wait()
		if err := p.Submit(func() {}, nil); err != errPoolClosed {
			t.Fatalf("submit after Close = %v, want %v", err, errPoolClosed)
		}
		if got, want := ran.Load()+dropped.Load(), accepted.Load(); got != want {
			t.Fatalf("round %d: %d jobs ran and %d were dropped, want %d accepted jobs accounted for once",
				round, ran.Load(), dropped.Load(), want)
		}
	}
}

// TestShutdownPurgesQueuedUpdates: an update still queued when the drain
// budget runs out fails with the drain reason and releases its session.
func TestShutdownPurgesQueuedUpdates(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 1, QueueSize: 2, QuestionTimeout: 30 * time.Second})
	ctx := context.Background()
	var sids []string
	for i := 0; i < 2; i++ {
		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, sid)
	}
	if _, err := c.SubmitAsync(ctx, sids[0], exampleIntent, "ISP_OUT"); err != nil {
		t.Fatal(err)
	}
	waitPendingQuestion(t, c, sids[0])
	queued, err := c.SubmitAsync(ctx, sids[1], exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	u, err := c.Update(ctx, sids[1], queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if u.Status != StatusFailed || u.Error != "rejected: server is draining" {
		t.Fatalf("queued update = %s %q, want failed with the drain reason", u.Status, u.Error)
	}
	if info, err := c.Session(ctx, sids[1]); err != nil || info.Busy {
		t.Fatalf("purged update's session = %+v, %v; want released", info, err)
	}
}
