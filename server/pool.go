package server

import (
	"context"
	"sync"

	"github.com/clarifynet/clarify/tenant"
)

// pool is a bounded worker pool: N workers drain a two-lane tenant-aware
// dispatch queue (tenant.Queue). The interactive lane is strict-priority so
// sessions engaged in the disambiguation Q&A are never queued behind a bulk
// flood; the bulk lane is weighted-fair (SFQ) across tenants. When the queue
// is full — or the CoDel-style shed controller declares overload and the
// submitting tenant is at its fair backlog share — Submit fails immediately
// with a typed reason so the HTTP layer can shed load with 429 instead of
// accumulating goroutines: the backpressure contract of the serving layer.
//
// Workers are panic-proof: a panicking job is contained (and reported via
// onPanic) instead of killing the worker goroutine and, with it, the whole
// daemon.
type pool struct {
	queue   *tenant.Queue
	wg      sync.WaitGroup
	workers int
	// onPanic, when non-nil, receives the recovered value of any job panic
	// that escapes the job's own recovery. It runs on the worker goroutine;
	// keep it non-blocking.
	onPanic func(v interface{})
}

func newPool(workers, queueSize int, shed tenant.ShedConfig, onPanic func(v interface{})) *pool {
	if workers <= 0 {
		workers = 4
	}
	if queueSize <= 0 {
		queueSize = 2 * workers
	}
	p := &pool{
		queue:   tenant.NewQueue(tenant.QueueConfig{Capacity: queueSize, Shed: shed}),
		workers: workers,
		onPanic: onPanic,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				job, ok := p.queue.Next()
				if !ok {
					return
				}
				p.run(job)
			}
		}()
	}
	return p
}

// run executes one job, containing any panic so the worker survives.
func (p *pool) run(job func()) {
	defer func() {
		if v := recover(); v != nil && p.onPanic != nil {
			p.onPanic(v)
		}
	}()
	job()
}

// Submit enqueues a job on the given tenant's flow and lane without
// blocking. The empty reason means admitted; otherwise the job was shed
// (queue full, overload, or pool draining) and drop — if non-nil — may
// later be invoked only for admitted jobs that get purged at shutdown.
func (p *pool) Submit(tenantName string, weight float64, lane tenant.Lane, job func(), drop func(tenant.Reason)) tenant.Reason {
	if weight <= 0 {
		weight = 1
	}
	if tenantName == "" {
		tenantName = tenant.DefaultTenant
	}
	return p.queue.Push(tenantName, weight, lane, job, drop)
}

// Depth is the number of queued (not yet running) jobs.
func (p *pool) Depth() int { return p.queue.Depth() }

// Capacity is the bounded queue size.
func (p *pool) Capacity() int { return p.queue.Capacity() }

// Workers is the pool size.
func (p *pool) Workers() int { return p.workers }

// Overloaded reports whether the queue-delay shed controller is tripped.
func (p *pool) Overloaded() bool { return p.queue.Overloaded() }

// QueueStats snapshots the dispatch-queue counters.
func (p *pool) QueueStats() tenant.QueueStats { return p.queue.Stats() }

// FlowDepths returns the current bulk backlog per tenant.
func (p *pool) FlowDepths() map[string]int { return p.queue.FlowDepths() }

// Close stops accepting jobs and waits for the queue to drain and all
// running jobs to finish. If ctx expires first, the still-queued jobs are
// purged — each one's drop callback fails it upstream — so a saturated
// queue cannot wedge SIGTERM handoff past the supervisor's kill budget;
// only jobs already running keep the workers busy in the background.
func (p *pool) Close(ctx context.Context) error {
	p.queue.Close()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.queue.Purge(tenant.ReasonDrainDeadline)
		return ctx.Err()
	}
}

// Wait blocks until all workers have exited; call only after Close.
func (p *pool) Wait() { p.wg.Wait() }
