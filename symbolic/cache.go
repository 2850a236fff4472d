package symbolic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
)

// Fingerprint returns a content hash of exactly the inputs that determine a
// RouteSpace: the ordered as-path pattern sequence and the ordered community
// pattern sequence (regexes, literals, and set-community literals) collected
// from the given configs. Two config sets with equal fingerprints yield
// structurally interchangeable universes — every pattern lookup inside
// RouteSpace is by pattern string, never by config identity — so a space
// built for one can serve the other.
//
// Anything else in a config (prefix lists, match clauses, stanza order,
// numeric match/set values) does NOT invalidate a cached space: those inputs
// are encoded per call against fixed bit vectors, not baked into the
// universe.
func Fingerprint(cfgs ...*ios.Config) string {
	path, comm := spacePatterns(cfgs)
	h := sha256.New()
	var lenBuf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(path)))
	h.Write(lenBuf[:])
	for _, p := range path {
		writeStr(p)
	}
	for _, c := range comm {
		writeStr(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache bounds; see SpaceCache.
const (
	// maxIdlePerKey bounds idle spaces retained per fingerprint. Distinct
	// concurrent users of the same universe each check one out, so a small
	// pool covers typical worker-pool concurrency.
	maxIdlePerKey = 8
	// maxPoolNodes drops a space at Release once its BDD pool has
	// accumulated this many nodes, bounding memory held by the cache while
	// keeping the steady-state reuse win (typical verification pools hold a
	// few thousand nodes).
	maxPoolNodes = 1 << 21
)

// SpaceCacheStats is a snapshot of cache effectiveness counters.
type SpaceCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Idle is the number of spaces currently parked in the cache.
	Idle int `json:"idle"`
	// Automata is the number of compiled regex automata the cache's table
	// holds, across both dialects.
	Automata int `json:"automata"`
}

// SpaceCache is a content-addressed checkout pool of RouteSpaces. Acquire
// returns an idle cached space whose fingerprint matches the requested
// configs (or builds a fresh one), and Release files it back for the next
// caller. While checked out a space is owned exclusively by its acquirer —
// bdd.Pool is not safe for concurrent use — so the cache itself is safe for
// concurrent Acquire/Release from many goroutines; same-fingerprint
// concurrent acquirers simply each get their own space.
//
// Reuse is the point: a released space keeps its hash-consed node table and
// ITE cache, so repeated analyses over the same pattern universe (the
// daemon's steady state — every route-map update of an unchanged config
// with the same intent, which verifies its snippet and disambiguates in one
// space) skip both the regex→DFA→atomic-predicate construction and the
// re-derivation of BDD nodes.
//
// The cache also owns one ciscorx.Memo, through which every space it builds
// compiles its regexes and takes its atom partitions. A miss whose
// fingerprint is new still shares most patterns with earlier spaces (the
// same base map with one new community), so the table saves the compile,
// and often the whole product, where the space cache cannot. The table
// lives exactly as long as the cache.
//
// A nil *SpaceCache is valid and disables caching: Acquire builds fresh
// spaces, each with a private automaton table, and Release discards them.
type SpaceCache struct {
	mu       sync.Mutex
	idle     map[string][]*RouteSpace
	hits     int64
	misses   int64
	automata *ciscorx.Memo
}

// NewSpaceCache returns an empty cache.
func NewSpaceCache() *SpaceCache {
	return &SpaceCache{idle: map[string][]*RouteSpace{}, automata: ciscorx.NewMemo()}
}

// Acquire returns a RouteSpace for the given configs, reusing an idle cached
// space when the fingerprint matches. The caller owns the space until
// Release. On a nil cache it is exactly NewRouteSpace.
func (c *SpaceCache) Acquire(cfgs ...*ios.Config) (*RouteSpace, error) {
	if c == nil {
		return NewRouteSpace(cfgs...)
	}
	fp := Fingerprint(cfgs...)
	c.mu.Lock()
	if spaces := c.idle[fp]; len(spaces) > 0 {
		s := spaces[len(spaces)-1]
		c.idle[fp] = spaces[:len(spaces)-1]
		c.hits++
		c.mu.Unlock()
		return s, nil
	}
	c.misses++
	c.mu.Unlock()
	s, err := newRouteSpace(c.automata, cfgs)
	if err != nil {
		return nil, err
	}
	s.fp = fp
	return s, nil
}

// Release files a space acquired from this cache back for reuse. Spaces the
// cache did not create, over-grown spaces, and releases beyond the per-key
// idle bound are dropped. Safe on a nil cache.
func (c *SpaceCache) Release(s *RouteSpace) {
	if c == nil || s == nil || s.fp == "" {
		return
	}
	if s.Pool.Size() > maxPoolNodes {
		return
	}
	c.mu.Lock()
	if len(c.idle[s.fp]) < maxIdlePerKey {
		c.idle[s.fp] = append(c.idle[s.fp], s)
	}
	c.mu.Unlock()
}

// Stats snapshots the hit/miss counters. Safe on a nil cache.
func (c *SpaceCache) Stats() SpaceCacheStats {
	if c == nil {
		return SpaceCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, spaces := range c.idle {
		n += len(spaces)
	}
	return SpaceCacheStats{Hits: c.hits, Misses: c.misses, Idle: n, Automata: c.automata.Len()}
}
