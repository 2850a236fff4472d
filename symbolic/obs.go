package symbolic

import (
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/obs"
)

// ObservePool annotates sp with the BDD workload performed on p since the
// before snapshot, plus the pool's final size. Safe on a nil span.
func ObservePool(sp *obs.Span, p *bdd.Pool, before bdd.Counters) {
	if sp == nil {
		return
	}
	d := p.Counters().Sub(before)
	sp.SetInt("bdd-ite-calls", d.ITECalls)
	sp.SetInt("bdd-unique-hits", d.UniqueHits)
	sp.SetInt("bdd-nodes-built", d.UniqueMisses)
	sp.SetInt("bdd-growths", d.Growths)
	sp.SetInt("bdd-pool-size", int64(p.Size()))
}

// ObserveInto annotates sp with the workload performed on this space since
// the before snapshot: the BDD counter deltas plus the universe's atomic
// partition sizes. Call it before releasing the space back to a SpaceCache —
// once released, another goroutine may acquire the space and advance its
// counters. Safe on a nil span.
func (s *RouteSpace) ObserveInto(sp *obs.Span, before bdd.Counters) {
	if sp == nil {
		return
	}
	ObservePool(sp, s.Pool, before)
	sp.SetInt("path-atoms", int64(s.PathAtomCount()))
	sp.SetInt("comm-atoms", int64(s.CommAtomCount()))
	if s.fp != "" {
		sp.SetBool("space-cached", true)
	}
}

// ObserveInto annotates sp with the workload performed on this space since
// the before snapshot. An ACL update shares one space between verification
// and disambiguation, so the pool size it reports includes the nodes earlier
// analyses built. Safe on a nil span.
func (s *ACLSpace) ObserveInto(sp *obs.Span, before bdd.Counters) {
	ObservePool(sp, s.Pool, before)
}
