// Package analysis provides the Batfish-equivalent analyses the paper's
// workflow depends on: searchRoutePolicies / searchFilters (find an input
// with a required behaviour), compareRoutePolicies (differential examples
// between two route maps), and the overlap measurements of Section 3.
package analysis

import (
	"fmt"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/symbolic"
)

// maxWitnessProbes bounds how many symbolic candidate models are concretely
// confirmed per region pair before giving up on that pair; the community
// abstraction can produce spurious candidates but never hides a real
// difference behind more than a few.
const maxWitnessProbes = 8

// ---------- searchRoutePolicies / searchFilters ----------

// SearchRouteMap finds a route within constraint on which the route map's
// action equals wantPermit — the equivalent of Batfish's
// searchRoutePolicies. ok is false when no such route exists.
func SearchRouteMap(s *symbolic.RouteSpace, cfg *ios.Config, rm *ios.RouteMap, constraint bdd.Node, wantPermit bool) (route.Route, bool, error) {
	permitted, err := s.PermitSet(cfg, rm)
	if err != nil {
		return route.Route{}, false, err
	}
	target := permitted
	if !wantPermit {
		target = s.Pool.Not(permitted)
	}
	return s.Witness(s.Pool.And(constraint, target))
}

// SearchACL finds a packet within constraint on which the ACL's action
// equals wantPermit — the equivalent of Batfish's searchFilters.
func SearchACL(s *symbolic.ACLSpace, acl *ios.ACL, constraint bdd.Node, wantPermit bool) (packet.Packet, bool) {
	target := s.PermitSet(acl)
	if !wantPermit {
		target = s.Pool.Not(target)
	}
	return s.Witness(s.Pool.And(constraint, target))
}

// ---------- compareRoutePolicies ----------

// Diff is one differential example: an input route on which the two route
// maps behave observably differently, with both concrete verdicts.
type Diff struct {
	Input    route.Route
	VerdictA policy.RouteVerdict
	VerdictB policy.RouteVerdict
}

// VerdictsEqual reports whether two concrete verdicts are observationally
// identical: both deny, or both permit with attribute-equal outputs.
func VerdictsEqual(a, b policy.RouteVerdict) bool {
	if a.Permit != b.Permit {
		return false
	}
	if !a.Permit {
		return true
	}
	return a.Output.Equal(b.Output)
}

// CompareRouteMaps finds up to maxDiffs inputs on which rmA (under cfgA) and
// rmB (under cfgB) behave differently — the equivalent of Batfish's
// compareRoutePolicies. Both configs must have been passed to the
// RouteSpace's constructor. Every returned diff is confirmed by the concrete
// evaluator.
func CompareRouteMaps(s *symbolic.RouteSpace, cfgA *ios.Config, rmA *ios.RouteMap, cfgB *ios.Config, rmB *ios.RouteMap, maxDiffs int) ([]Diff, error) {
	if maxDiffs <= 0 {
		maxDiffs = 1
	}
	fmA, err := s.FirstMatch(cfgA, rmA)
	if err != nil {
		return nil, err
	}
	fmB, err := s.FirstMatch(cfgB, rmB)
	if err != nil {
		return nil, err
	}
	evA := policy.NewEvaluatorWith(cfgA, s.Automata())
	evB := policy.NewEvaluatorWith(cfgB, s.Automata())
	p := s.Pool
	var diffs []Diff
	for i, ra := range fmA {
		for j, rb := range fmB {
			region := p.AndN(ra, rb, s.Valid)
			if region == bdd.False {
				continue
			}
			outEq, err := s.OutputEqual(stanzaAt(rmA, i), stanzaAt(rmB, j))
			if err != nil {
				return nil, err
			}
			diffRegion := p.Diff(region, outEq)
			if diffRegion == bdd.False {
				continue
			}
			d, found, err := confirmDiff(s, evA, rmA, evB, rmB, diffRegion)
			if err != nil {
				return nil, err
			}
			if found {
				diffs = append(diffs, d)
				if len(diffs) >= maxDiffs {
					return diffs, nil
				}
			}
		}
	}
	return diffs, nil
}

// stanzaAt returns the stanza for a first-match region index, or nil for the
// trailing implicit-deny region.
func stanzaAt(rm *ios.RouteMap, i int) *ios.Stanza {
	if i >= len(rm.Stanzas) {
		return nil
	}
	return rm.Stanzas[i]
}

// confirmDiff decodes candidate models from diffRegion one at a time and
// returns the first whose concrete verdicts actually differ.
func confirmDiff(s *symbolic.RouteSpace, evA *policy.Evaluator, rmA *ios.RouteMap, evB *policy.Evaluator, rmB *ios.RouteMap, diffRegion bdd.Node) (Diff, bool, error) {
	var d Diff
	found, err := s.WitnessWhere(diffRegion, maxWitnessProbes, func(w route.Route) (bool, error) {
		va, err := evA.EvalRouteMap(rmA, w)
		if err != nil {
			return false, err
		}
		vb, err := evB.EvalRouteMap(rmB, w)
		if err != nil {
			return false, err
		}
		if VerdictsEqual(va, vb) {
			return false, nil
		}
		d = Diff{Input: w, VerdictA: va, VerdictB: vb}
		return true, nil
	})
	return d, found, err
}

// EquivalentRouteMaps reports whether the two route maps are observationally
// identical on every input route.
func EquivalentRouteMaps(s *symbolic.RouteSpace, cfgA *ios.Config, rmA *ios.RouteMap, cfgB *ios.Config, rmB *ios.RouteMap) (bool, error) {
	diffs, err := CompareRouteMaps(s, cfgA, rmA, cfgB, rmB, 1)
	if err != nil {
		return false, err
	}
	return len(diffs) == 0, nil
}

// ---------- Overlap analyses (Section 3) ----------

// RouteMapOverlap is a pair of stanzas matched by at least one common route.
type RouteMapOverlap struct {
	I, J        int  // stanza indices, I < J
	Conflicting bool // the stanzas' actions differ (informational; §3 ignores it)
	Witness     route.Route
}

// RouteMapOverlaps returns every overlapping stanza pair of rm, per the
// paper's definition: two stanzas overlap when some route advertisement
// matches both (actions ignored).
func RouteMapOverlaps(s *symbolic.RouteSpace, cfg *ios.Config, rm *ios.RouteMap) ([]RouteMapOverlap, error) {
	preds := make([]bdd.Node, len(rm.Stanzas))
	for i, st := range rm.Stanzas {
		p, err := s.StanzaPred(cfg, st)
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	var out []RouteMapOverlap
	for i := 0; i < len(preds); i++ {
		for j := i + 1; j < len(preds); j++ {
			both := s.Pool.AndN(preds[i], preds[j], s.Valid)
			if both == bdd.False {
				continue
			}
			w, ok, err := s.Witness(both)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			out = append(out, RouteMapOverlap{
				I: i, J: j,
				Conflicting: rm.Stanzas[i].Permit != rm.Stanzas[j].Permit,
				Witness:     w,
			})
		}
	}
	return out, nil
}

// ACLOverlap is a pair of ACL entries matched by at least one common packet.
type ACLOverlap struct {
	I, J         int
	Conflicting  bool // entry actions differ
	ProperSubset bool // one entry's match set strictly contains the other's
	Witness      packet.Packet
}

// ACLOverlaps returns every overlapping entry pair of the ACL, classifying
// each as conflicting (different actions on a shared packet) and/or a
// proper-subset pair (the "trivial" overlaps §3.2 separates out, e.g.
// `permit tcp host A host B` under `deny ip any any`).
func ACLOverlaps(s *symbolic.ACLSpace, acl *ios.ACL) []ACLOverlap {
	preds := make([]bdd.Node, len(acl.Entries))
	for i, e := range acl.Entries {
		preds[i] = s.ACEPred(e)
	}
	p := s.Pool
	var out []ACLOverlap
	for i := 0; i < len(preds); i++ {
		for j := i + 1; j < len(preds); j++ {
			both := p.And(preds[i], preds[j])
			if both == bdd.False {
				continue
			}
			pk, _ := s.Witness(both)
			iInJ := p.Diff(preds[i], preds[j]) == bdd.False
			jInI := p.Diff(preds[j], preds[i]) == bdd.False
			out = append(out, ACLOverlap{
				I: i, J: j,
				Conflicting:  acl.Entries[i].Permit != acl.Entries[j].Permit,
				ProperSubset: (iInJ || jInI) && !(iInJ && jInI),
				Witness:      pk,
			})
		}
	}
	return out
}

// ACLOverlapStats aggregates one ACL's overlap profile for the §3 tables.
type ACLOverlapStats struct {
	Name        string
	Entries     int
	Overlaps    int // all overlapping pairs
	Conflicting int // pairs with different actions
	NonTrivial  int // conflicting pairs that are not proper-subset pairs
}

// AnalyzeACL computes the aggregate overlap statistics for one ACL.
func AnalyzeACL(s *symbolic.ACLSpace, acl *ios.ACL) ACLOverlapStats {
	st := ACLOverlapStats{Name: acl.Name, Entries: len(acl.Entries)}
	for _, o := range ACLOverlaps(s, acl) {
		st.Overlaps++
		if o.Conflicting {
			st.Conflicting++
			if !o.ProperSubset {
				st.NonTrivial++
			}
		}
	}
	return st
}

// RouteMapOverlapStats aggregates one route map's overlap profile.
type RouteMapOverlapStats struct {
	Name        string
	Stanzas     int
	Overlaps    int
	Conflicting int
}

// AnalyzeRouteMap computes the aggregate overlap statistics for one route
// map. The route space must cover cfg.
func AnalyzeRouteMap(s *symbolic.RouteSpace, cfg *ios.Config, rm *ios.RouteMap) (RouteMapOverlapStats, error) {
	st := RouteMapOverlapStats{Name: rm.Name, Stanzas: len(rm.Stanzas)}
	overlaps, err := RouteMapOverlaps(s, cfg, rm)
	if err != nil {
		return st, fmt.Errorf("analysis: route-map %s: %w", rm.Name, err)
	}
	for _, o := range overlaps {
		st.Overlaps++
		if o.Conflicting {
			st.Conflicting++
		}
	}
	return st, nil
}
