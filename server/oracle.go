package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/clarifynet/clarify/disambig"
)

// ErrQuestionTimeout aborts an update whose disambiguation question was not
// answered within the configured window.
var ErrQuestionTimeout = errors.New("server: disambiguation question timed out without an answer")

// errStaleAnswer reports an answer whose sequence number does not match the
// pending question (a duplicate or a race with a newer question).
var errStaleAnswer = errors.New("server: answer does not match the pending question")

// asyncOracle bridges the synchronous disambig oracle interfaces onto the
// HTTP question/answer endpoints. The pipeline goroutine (a pool worker)
// calls ChooseRoute/ChooseACL, which parks it: the question becomes visible
// in the update view and at GET /v1/sessions/{id}/question, and the
// goroutine resumes when an operator POSTs the matching answer — or errors
// out on timeout or server shutdown, cancelling the whole update.
type asyncOracle struct {
	timeout time.Duration

	mu      sync.Mutex
	ctx     context.Context // cancelled on forced shutdown or update deadline
	seq     int
	pending *Question
	answer  chan bool
	// posted is closed and replaced each time a question is posted, waking
	// the replies waiting on the update.
	posted chan struct{}
	// answered is the transcript of answers delivered so far, in question
	// order — the raw material a session snapshot needs to re-execute a
	// parked update on another daemon.
	answered []disambig.Answer
}

func newAsyncOracle(ctx context.Context, timeout time.Duration) *asyncOracle {
	if timeout <= 0 {
		timeout = time.Minute
	}
	return &asyncOracle{ctx: ctx, timeout: timeout, posted: make(chan struct{})}
}

// newRestoredOracle builds the oracle for a rehydrated update: the sequence
// counter and transcript resume where the snapshot left off, so the
// re-parked question carries the same seq the client last saw and a second
// handoff snapshots the full answer history.
func newRestoredOracle(ctx context.Context, timeout time.Duration, answered []disambig.Answer) *asyncOracle {
	o := newAsyncOracle(ctx, timeout)
	o.seq = len(answered)
	o.answered = append([]disambig.Answer(nil), answered...)
	return o
}

// bind replaces the oracle's cancellation context. The server binds the
// per-update deadline context when the job starts running, so an unanswered
// question cannot park a worker past the update budget.
func (o *asyncOracle) bind(ctx context.Context) {
	o.mu.Lock()
	o.ctx = ctx
	o.mu.Unlock()
}

// ChooseRoute implements disambig.RouteOracle.
func (o *asyncOracle) ChooseRoute(q disambig.RouteQuestion) (bool, error) {
	return o.ask(func(seq int) *Question { return newRouteQuestion(seq, q) })
}

// ChooseACL implements disambig.ACLOracle.
func (o *asyncOracle) ChooseACL(q disambig.ACLQuestion) (bool, error) {
	return o.ask(func(seq int) *Question { return newACLQuestion(seq, q) })
}

// ask posts the next question, rendered under its sequence number, wakes
// the replies waiting for it, and parks until it is answered.
func (o *asyncOracle) ask(render func(seq int) *Question) (bool, error) {
	o.mu.Lock()
	o.seq++
	o.pending = render(o.seq)
	o.answer = make(chan bool, 1)
	ch := o.answer
	close(o.posted)
	o.posted = make(chan struct{})
	o.mu.Unlock()
	return o.wait(ch)
}

// wait parks the pipeline goroutine until an answer, a timeout, update
// cancellation, or shutdown.
func (o *asyncOracle) wait(ch chan bool) (bool, error) {
	o.mu.Lock()
	ctx := o.ctx
	o.mu.Unlock()
	timer := time.NewTimer(o.timeout)
	defer timer.Stop()
	defer func() {
		o.mu.Lock()
		o.pending, o.answer = nil, nil
		o.mu.Unlock()
	}()
	select {
	case preferNew := <-ch:
		return preferNew, nil
	case <-timer.C:
		return false, ErrQuestionTimeout
	case <-ctx.Done():
		return false, fmt.Errorf("server: update cancelled: %w", context.Cause(ctx))
	}
}

// Pending returns the currently displayed question, or nil.
func (o *asyncOracle) Pending() *Question {
	q, _ := o.watch()
	return q
}

// watch returns a copy of the currently displayed question, or nil, and a
// channel closed when the next question is posted. Both are read under one
// hold of the lock, so a question posted after the read closes the channel.
func (o *asyncOracle) watch() (*Question, <-chan struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == nil {
		return nil, o.posted
	}
	q := *o.pending
	return &q, o.posted
}

// Answer delivers the operator's choice for question seq; option is 1 (the
// new rule applies) or 2 (keep existing behaviour).
func (o *asyncOracle) Answer(seq, option int) error {
	if option != 1 && option != 2 {
		return fmt.Errorf("server: option must be 1 or 2, got %d", option)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == nil || o.answer == nil {
		return errStaleAnswer
	}
	if o.pending.Seq != seq {
		return errStaleAnswer
	}
	// The buffered send cannot block: each question allocates a fresh
	// channel and the pending clear below prevents a second delivery.
	o.answer <- (option == 1)
	o.answered = append(o.answered, disambig.Answer{
		Kind:      o.pending.Kind,
		Question:  o.pending.Text,
		PreferNew: option == 1,
	})
	o.pending, o.answer = nil, nil
	return nil
}

// transcript snapshots the delivered-answer history.
func (o *asyncOracle) transcript() []disambig.Answer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]disambig.Answer(nil), o.answered...)
}

var (
	_ disambig.RouteOracle = (*asyncOracle)(nil)
	_ disambig.ACLOracle   = (*asyncOracle)(nil)
)
