package resilience

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
)

// The two backends' names, in metrics, span attributes and errors. The
// primary is the OpenAI-compatible endpoint; the fallback is the simulated
// LLM.
const (
	primaryBackend  = "http"
	FallbackBackend = "sim"
)

// httpRetries is the number of times the primary re-attempts a completion
// after a 429, a 5xx or a transport error other than a refused connection,
// before its breaker counts it failed.
const httpRetries = 3

// Stack is the LLM backend path: a breaker-guarded primary and an optional
// fallback, tried in that order. A completion the fallback serves marks
// the update (through the context's Flags) and latches the stack degraded;
// a primary success clears the latch. A caller's cancellation aborts
// before the fallback and is not charged to the breaker.
//
// Stack implements llm.Client and is safe for concurrent use, so one stack
// serves every session of a daemon; Degraded, CanServe and Stats are what
// /healthz, /readyz and /metrics report.
type Stack struct {
	primary  llm.Client
	fallback llm.Client // nil when none
	breaker  *Breaker

	served    atomic.Int64 // completions the primary served
	failures  atomic.Int64 // failed attempts against the primary
	fallbacks atomic.Int64 // completions the fallback served
	exhausted atomic.Int64 // completions where every backend failed
	degraded  atomic.Bool  // set on a fallback, cleared on a primary success
}

// NewStack guards primary with a breaker configured by cfg and puts
// fallback (nil for none) behind it.
func NewStack(primary llm.Client, cfg BreakerConfig, fallback llm.Client) *Stack {
	return &Stack{primary: primary, fallback: fallback, breaker: NewBreaker(cfg)}
}

// NewHTTPStack builds the stack clarify and clarifyd serve with -llm http:
// the OpenAI-compatible endpoint at baseURL as the primary, retried up to
// three times, behind a breaker with the default settings, and fallback
// (nil for none) behind it. onStateChange, when non-nil, is called on every
// breaker transition.
func NewHTTPStack(baseURL, model, apiKey string, fallback llm.Client, onStateChange func(from, to State)) *Stack {
	primary := &llm.HTTPClient{BaseURL: baseURL, Model: model, APIKey: apiKey, MaxRetries: httpRetries}
	return NewStack(primary, BreakerConfig{OnStateChange: onStateChange}, fallback)
}

// Breaker exposes the primary backend's breaker.
func (s *Stack) Breaker() *Breaker { return s.breaker }

// Complete implements llm.Client.
func (s *Stack) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	sp := obs.SpanFromContext(ctx)
	if err := ctx.Err(); err != nil {
		return llm.Response{}, fmt.Errorf("resilience: update cancelled before backend %q: %w", primaryBackend, err)
	}
	resp, err := s.completePrimary(ctx, sp, req)
	if err == nil {
		s.served.Add(1)
		s.degraded.Store(false)
		return resp, nil
	}
	s.failures.Add(1)
	err = fmt.Errorf("%s: %w", primaryBackend, err)
	backends := 1
	if s.fallback != nil {
		backends = 2
		if ctx.Err() != nil {
			return llm.Response{}, fmt.Errorf("resilience: update cancelled before backend %q: %w", FallbackBackend, err)
		}
		resp, ferr := s.fallback.Complete(ctx, req)
		if ferr == nil {
			s.fallbacks.Add(1)
			s.degraded.Store(true)
			sp.SetStr("llm-backend", FallbackBackend)
			sp.SetBool("llm-fallback", true)
			FlagsFromContext(ctx).MarkDegraded()
			return resp, nil
		}
		err = fmt.Errorf("%s: %w", FallbackBackend, ferr)
	}
	s.exhausted.Add(1)
	sp.SetBool("llm-chain-exhausted", true)
	return llm.Response{}, fmt.Errorf("resilience: all %d backend(s) failed: %w", backends, err)
}

// completePrimary calls the primary through the breaker: short-circuited
// with ErrOpen while it is open, the outcome fed to its window otherwise.
// A failure the caller's own context caused is not charged to the backend.
// A transition observed around the call is recorded on sp.
func (s *Stack) completePrimary(ctx context.Context, sp *obs.Span, req llm.Request) (llm.Response, error) {
	if err := s.breaker.Allow(); err != nil {
		sp.SetBool("breaker-short-circuit", true)
		return llm.Response{}, err
	}
	before := s.breaker.State()
	resp, err := s.primary.Complete(ctx, req)
	if err != nil && ctx.Err() != nil {
		// The caller gave up; the backend may be fine.
		s.breaker.RecordCanceled()
		return resp, err
	}
	s.breaker.Record(err == nil)
	if after := s.breaker.State(); after != before {
		sp.SetStr("breaker-transition", before.String()+"->"+after.String())
	}
	return resp, err
}

// Degraded reports whether the stack is serving in degraded mode: the last
// completion came from the fallback, or the primary breaker is open. A nil
// stack is never degraded.
func (s *Stack) Degraded() bool {
	if s == nil {
		return false
	}
	return s.degraded.Load() || s.breaker.State() == Open
}

// CanServe reports whether a backend can currently take a completion: false
// only when the breaker is open and there is no fallback behind it. A nil
// stack can serve.
func (s *Stack) CanServe() bool {
	if s == nil {
		return true
	}
	return s.fallback != nil || s.breaker.State() != Open
}

// Stats snapshots the stack for /metrics; nil for a nil stack. The
// fallback serves exactly the fallbacks, and each of its failures exhausts
// the completion.
func (s *Stack) Stats() *Stats {
	if s == nil {
		return nil
	}
	bs := s.breaker.Stats()
	cs := &ChainStats{
		Backends:  []BackendStats{{Name: primaryBackend, Served: s.served.Load(), Failures: s.failures.Load()}},
		Fallbacks: s.fallbacks.Load(),
		Exhausted: s.exhausted.Load(),
	}
	if s.fallback != nil {
		cs.Backends = append(cs.Backends, BackendStats{Name: FallbackBackend, Served: cs.Fallbacks, Failures: cs.Exhausted})
	}
	return &Stats{Degraded: s.Degraded(), Breaker: &bs, Chain: cs}
}

var _ llm.Client = (*Stack)(nil)
