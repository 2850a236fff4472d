// Package resilience contains the failure-containment layer between the
// Clarify pipeline and an unreliable LLM endpoint. A Stack is the llm.Client
// both binaries complete against with -llm http: the OpenAI-compatible
// endpoint (the primary), guarded by a circuit breaker that stops hammering
// it while it is down (Breaker), with an optional fallback behind it —
// the deterministic SimLLM — that serves completions in degraded mode
// instead of failing updates. NewHTTPStack builds it for clarify and
// clarifyd alike.
//
// The paper's verify-and-retry loop (Figure 1, steps 3–5) already tolerates
// *wrong* LLM output; this package makes the serving layer tolerate an
// *absent* one. Every decision the layer takes — a short-circuited call, a
// breaker transition, a completion served by the fallback — is recorded on
// the active obs span and in counters the server exposes via /metrics.
package resilience

import (
	"context"
	"sync/atomic"
)

// Flags is the per-update resilience record threaded through the pipeline by
// context: the stack marks it when the fallback serves a completion, and
// the serving layer reads it back to stamp the update's degraded flag. All
// methods are safe on a nil receiver and for concurrent use.
type Flags struct {
	degraded atomic.Bool
}

// MarkDegraded records that the fallback served a completion for this
// update.
func (f *Flags) MarkDegraded() {
	if f != nil {
		f.degraded.Store(true)
	}
}

// Degraded reports whether any completion of this update came from the
// fallback.
func (f *Flags) Degraded() bool {
	return f != nil && f.degraded.Load()
}

// flagsKey is the context key for the per-update Flags.
type flagsKey struct{}

// WithFlags returns ctx carrying a fresh Flags record for one update.
func WithFlags(ctx context.Context) (context.Context, *Flags) {
	f := &Flags{}
	return context.WithValue(ctx, flagsKey{}, f), f
}

// FlagsFromContext returns the Flags carried by ctx, or nil (whose methods
// no-op).
func FlagsFromContext(ctx context.Context) *Flags {
	f, _ := ctx.Value(flagsKey{}).(*Flags)
	return f
}

// Stats is the snapshot of a Stack's resilience state, embedded in the
// daemon's /metrics body.
type Stats struct {
	// Degraded reports whether the stack is currently serving through the
	// fallback (or the primary breaker is open).
	Degraded bool `json:"degraded"`
	// Breaker is the primary backend's circuit breaker.
	Breaker *BreakerStats `json:"breaker,omitempty"`
	// Chain is the traffic of the primary and, when configured, the
	// fallback, in the order a completion tries them.
	Chain *ChainStats `json:"chain,omitempty"`
}

// BackendStats is one backend's view in ChainStats.
type BackendStats struct {
	Name string `json:"name"`
	// Served counts completions this backend returned successfully.
	Served int64 `json:"served"`
	// Failures counts attempts against this backend that errored (including
	// breaker short-circuits of the primary).
	Failures int64 `json:"failures"`
}

// ChainStats is the /metrics snapshot of a stack's backends.
type ChainStats struct {
	Backends []BackendStats `json:"backends"`
	// Fallbacks counts completions served by the fallback.
	Fallbacks int64 `json:"fallbacks"`
	// Exhausted counts completions where every backend failed.
	Exhausted int64 `json:"exhausted"`
}
