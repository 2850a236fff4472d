package resilience

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
)

// Chain is a fallback chain of LLM backends: a completion is tried against
// each client in order until one succeeds. The first client is the primary;
// any completion served by a later client marks the update (via the context
// Flags) and the chain (via the degraded latch) as running in degraded mode.
// A caller-side context error aborts the chain immediately — a cancelled
// update must not burn the fallback budget too.
//
// Chain is stateless per call apart from counters and is safe for
// concurrent use, so one chain can serve every session of a daemon.
type Chain struct {
	clients []llm.Client
	names   []string

	served    []atomic.Int64 // completions served per backend
	failures  []atomic.Int64 // failed attempts per backend
	fallbacks atomic.Int64   // completions served by a non-primary backend
	exhausted atomic.Int64   // completions where every backend failed
	degraded  atomic.Bool    // latched by outcomes: set on fallback, cleared on primary success
}

// NewChain builds a fallback chain over clients, in priority order. names
// label the backends in metrics and span attributes; missing names default
// to "backend-N". Panics on an empty chain.
func NewChain(clients []llm.Client, names ...string) *Chain {
	if len(clients) == 0 {
		panic("resilience: NewChain needs at least one client")
	}
	c := &Chain{
		clients:  clients,
		served:   make([]atomic.Int64, len(clients)),
		failures: make([]atomic.Int64, len(clients)),
	}
	c.names = make([]string, len(clients))
	for i := range clients {
		if i < len(names) && names[i] != "" {
			c.names[i] = names[i]
		} else {
			c.names[i] = fmt.Sprintf("backend-%d", i)
		}
	}
	return c
}

// Len is the number of backends in the chain.
func (c *Chain) Len() int { return len(c.clients) }

// Degraded reports whether the most recent completed call was served by a
// fallback backend (cleared when the primary serves again).
func (c *Chain) Degraded() bool { return c.degraded.Load() }

// Complete implements llm.Client.
func (c *Chain) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	sp := obs.SpanFromContext(ctx)
	var lastErr error
	for i, cl := range c.clients {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return llm.Response{}, fmt.Errorf("resilience: update cancelled before backend %q: %w", c.names[i], lastErr)
		}
		resp, err := cl.Complete(ctx, req)
		if err == nil {
			c.served[i].Add(1)
			if i > 0 {
				c.fallbacks.Add(1)
				c.degraded.Store(true)
				sp.SetStr("llm-backend", c.names[i])
				sp.SetBool("llm-fallback", true)
				FlagsFromContext(ctx).MarkDegraded(c.names[i])
			} else {
				c.degraded.Store(false)
			}
			return resp, nil
		}
		c.failures[i].Add(1)
		lastErr = fmt.Errorf("%s: %w", c.names[i], err)
	}
	c.exhausted.Add(1)
	sp.SetBool("llm-chain-exhausted", true)
	return llm.Response{}, fmt.Errorf("resilience: all %d backend(s) failed: %w", len(c.clients), lastErr)
}

// BackendStats is one backend's view in ChainStats.
type BackendStats struct {
	Name string `json:"name"`
	// Served counts completions this backend returned successfully.
	Served int64 `json:"served"`
	// Failures counts attempts against this backend that errored (including
	// breaker short-circuits on a wrapped primary).
	Failures int64 `json:"failures"`
}

// ChainStats is the chain's /metrics snapshot.
type ChainStats struct {
	Backends []BackendStats `json:"backends"`
	// Fallbacks counts completions served by a non-primary backend.
	Fallbacks int64 `json:"fallbacks"`
	// Exhausted counts completions where every backend failed.
	Exhausted int64 `json:"exhausted"`
}

// Stats snapshots the chain counters.
func (c *Chain) Stats() ChainStats {
	out := ChainStats{
		Backends:  make([]BackendStats, len(c.clients)),
		Fallbacks: c.fallbacks.Load(),
		Exhausted: c.exhausted.Load(),
	}
	for i := range c.clients {
		out.Backends[i] = BackendStats{
			Name:     c.names[i],
			Served:   c.served[i].Load(),
			Failures: c.failures[i].Load(),
		}
	}
	return out
}

// Stack bundles the resilience layer the daemon serves with: the primary
// backend wrapped in a circuit breaker, chained onto optional fallbacks.
// Client() is what sessions complete against; Degraded()/Stats() are what
// /healthz and /metrics surface.
type Stack struct {
	chain   *Chain
	breaker *Breaker // nil when the primary is not breaker-wrapped
}

// NewStack wraps primary in a breaker (cfg) and chains fallback behind it
// when fallback is non-nil. primaryName/fallbackName label the backends.
func NewStack(primary llm.Client, primaryName string, cfg BreakerConfig, fallback llm.Client, fallbackName string) *Stack {
	b := NewBreaker(cfg)
	wrapped := &BreakerClient{Inner: primary, B: b}
	clients := []llm.Client{llm.Client(wrapped)}
	names := []string{primaryName}
	if fallback != nil {
		clients = append(clients, fallback)
		names = append(names, fallbackName)
	}
	return &Stack{chain: NewChain(clients, names...), breaker: b}
}

// Client returns the llm.Client sessions should complete against.
func (s *Stack) Client() llm.Client { return s.chain }

// Breaker exposes the primary backend's breaker, or nil.
func (s *Stack) Breaker() *Breaker { return s.breaker }

// Chain exposes the fallback chain.
func (s *Stack) Chain() *Chain { return s.chain }

// Degraded reports whether the stack is serving in degraded mode: the last
// completion came from a fallback backend, or the primary breaker is open.
func (s *Stack) Degraded() bool {
	if s == nil {
		return false
	}
	if s.chain.Degraded() {
		return true
	}
	return s.breaker != nil && s.breaker.State() == Open
}

// CanServe reports whether any backend can currently take a completion:
// false only when the breaker is open and there is no fallback behind it.
func (s *Stack) CanServe() bool {
	if s == nil {
		return true
	}
	if s.chain.Len() > 1 {
		return true
	}
	return s.breaker == nil || s.breaker.State() != Open
}

// Stats snapshots the stack for /metrics.
func (s *Stack) Stats() *Stats {
	if s == nil {
		return nil
	}
	out := &Stats{Degraded: s.Degraded()}
	if s.breaker != nil {
		bs := s.breaker.Stats()
		out.Breaker = &bs
	}
	cs := s.chain.Stats()
	out.Chain = &cs
	return out
}

var _ llm.Client = (*Chain)(nil)
