package server

import (
	"context"
	"errors"
	"sync"
)

// Submit's two refusals: the bounded queue is at capacity (the HTTP layer
// answers 429 with Retry-After), or Close has begun.
var (
	errQueueFull  = errors.New("submission queue full; retry later")
	errPoolClosed = errors.New("server is draining")
)

// pool is a bounded worker pool: N workers drain one bounded FIFO of jobs.
// When the queue is full, Submit fails immediately so the HTTP layer can
// shed load with 429 instead of accumulating goroutines — the backpressure
// contract of the serving layer.
//
// Workers are panic-proof: a panicking job is contained (and reported via
// onPanic) instead of killing the worker goroutine and, with it, the whole
// daemon.
type pool struct {
	queue   chan job
	wg      sync.WaitGroup
	mu      sync.Mutex // guards closed against a send on the closed queue
	closed  bool
	workers int
	// onPanic, when non-nil, receives the recovered value of any job panic
	// that escapes the job's own recovery. It runs on the worker goroutine;
	// keep it non-blocking.
	onPanic func(v interface{})
}

// job is one queued unit of work. drop, when non-nil, fails the job
// upstream if Close purges it at the drain deadline before a worker takes
// it.
type job struct {
	run  func()
	drop func()
}

func newPool(workers, queueSize int, onPanic func(v interface{})) *pool {
	if workers <= 0 {
		workers = 4
	}
	if queueSize <= 0 {
		queueSize = 2 * workers
	}
	p := &pool{queue: make(chan job, queueSize), workers: workers, onPanic: onPanic}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				p.run(j.run)
			}
		}()
	}
	return p
}

// run executes one job, containing any panic so the worker survives.
func (p *pool) run(fn func()) {
	defer func() {
		if v := recover(); v != nil && p.onPanic != nil {
			p.onPanic(v)
		}
	}()
	fn()
}

// Submit enqueues run without blocking. It fails with errQueueFull when the
// queue is at capacity and with errPoolClosed once Close has begun; drop is
// called only for an accepted job that Close later purges.
func (p *pool) Submit(run, drop func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.queue <- job{run: run, drop: drop}:
		return nil
	default:
		return errQueueFull
	}
}

// Depth is the number of queued (not yet running) jobs.
func (p *pool) Depth() int { return len(p.queue) }

// Capacity is the bounded queue size.
func (p *pool) Capacity() int { return cap(p.queue) }

// Workers is the pool size.
func (p *pool) Workers() int { return p.workers }

// Close stops accepting jobs and waits for the queue to drain and all
// running jobs to finish. If ctx expires first, the still-queued jobs are
// purged — each one's drop fails it upstream — so a saturated queue cannot
// wedge SIGTERM handoff past the supervisor's kill budget; only jobs
// already running keep the workers busy in the background.
func (p *pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The queue is closed, so this loop ends once it is empty. Workers
		// freeing up meanwhile take jobs from the same channel, so each
		// queued job either runs or is dropped, never both.
		for j := range p.queue {
			if j.drop != nil {
				j.drop()
			}
		}
		return ctx.Err()
	}
}

// Wait blocks until all workers have exited; call only after Close.
func (p *pool) Wait() { p.wg.Wait() }
