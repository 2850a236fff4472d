package lb

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent hash ring over a fixed backend fleet. Each backend
// owns `virtualNodes` points on a 64-bit circle; Lookup walks clockwise from
// the key's hash to the first point whose backend passes the eligibility
// predicate. The fleet is fixed at construction — ejection does not remove
// points, it just makes them ineligible — so when a backend recovers, every
// key it used to own hashes straight back to it, and while it is out only
// the keys it owned move (to the next point clockwise), never the rest.
type ring struct {
	points []ringPoint // sorted by hash, immutable after newRing
}

type ringPoint struct {
	hash uint64
	b    *Backend
}

// DefaultVirtualNodes is the per-backend point count when Options.VirtualNodes
// is zero: enough for <10% load spread between replicas at small fleet sizes.
const DefaultVirtualNodes = 128

func newRing(backends []*Backend, virtualNodes int) *ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &ring{points: make([]ringPoint, 0, len(backends)*virtualNodes)}
	for _, b := range backends {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(fmt.Sprintf("%s#%d", b.Name, i)),
				b:    b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare in 64 bits) tie-break by name
		// so the ring order is deterministic across replicas of the LB.
		return r.points[i].b.Name < r.points[j].b.Name
	})
	return r
}

// Lookup returns the first eligible backend clockwise from key's hash, or
// nil when no backend is eligible. Distinct ineligible backends are skipped
// (not just points), so a large virtualNodes count doesn't degenerate the
// walk when one backend is down.
func (r *ring) Lookup(key string, eligible func(*Backend) bool) *Backend {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[*Backend]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.b] {
			continue
		}
		seen[p.b] = true
		if eligible == nil || eligible(p.b) {
			return p.b
		}
	}
	return nil
}

// Points is the ring's total point count (backends × virtual nodes).
func (r *ring) Points() int { return len(r.points) }

// hashKey places a key (or a backend's virtual node) on the circle. Bare
// FNV-1a barely mixes keys that differ in a few trailing bytes, such as
// loopback backends named by port: one of two could own over 90% of the
// ring. murmur3's 64-bit finalizer spreads every input bit over the whole
// hash, and keeps the ring deterministic across balancer instances.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
