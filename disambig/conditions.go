package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
)

// CheckIncremental verifies the three §4 conditions relating the original
// semantics M to the updated semantics M′ on a finite input sample:
//
//  1. ∀r. M′(r) = M(r) ∨ M′(r) = S*
//  2. ∀r. M′(r) = S* ⇒ matches(r, S*)
//  3. ∀r,r′. matches(r,S*) ∧ matches(r′,S*) ∧ M′(r)=M(r) ∧ M′(r′)=S*
//     ⇒ M(r) ≤ M(r′)
//
// orig and updated hold the same route-map name; newStanzaIdx is the position
// of S* within the updated map. Rule identity across the two maps is by
// order: updated stanza j corresponds to original stanza j (j < newStanzaIdx)
// or j-1 (j > newStanzaIdx). The implicit deny corresponds to itself.
func CheckIncremental(sample []route.Route, orig, updated *ios.Config, mapName string, newStanzaIdx int) error {
	origRM, ok := orig.RouteMaps[mapName]
	if !ok {
		return fmt.Errorf("disambig: original lacks route-map %q", mapName)
	}
	updRM, ok := updated.RouteMaps[mapName]
	if !ok {
		return fmt.Errorf("disambig: updated lacks route-map %q", mapName)
	}
	if len(updRM.Stanzas) != len(origRM.Stanzas)+1 {
		return fmt.Errorf("disambig: updated map must have exactly one extra stanza")
	}
	automata := ciscorx.NewMemo()
	evO := policy.NewEvaluatorWith(orig, automata)
	evU := policy.NewEvaluatorWith(updated, automata)
	newStanza := updRM.Stanzas[newStanzaIdx]

	// toOrig maps an updated verdict index to the original rule it
	// corresponds to; the new stanza maps to the sentinel -2.
	const isNew = -2
	toOrig := func(updIdx int) int {
		switch {
		case updIdx == policy.ImplicitDeny:
			return policy.ImplicitDeny
		case updIdx == newStanzaIdx:
			return isNew
		case updIdx > newStanzaIdx:
			return updIdx - 1
		default:
			return updIdx
		}
	}
	// origRank orders original handlers for condition 3: stanza index, with
	// the implicit deny last.
	origRank := func(i int) int {
		if i == policy.ImplicitDeny {
			return len(origRM.Stanzas)
		}
		return i
	}

	type obs struct {
		r       route.Route
		matches bool // matches(r, S*)
		handler int  // original-rule id or isNew
		origIdx int  // M(r)
	}
	observations := make([]obs, 0, len(sample))
	for _, r := range sample {
		vo, err := evO.EvalRouteMap(origRM, r)
		if err != nil {
			return err
		}
		vu, err := evU.EvalRouteMap(updRM, r)
		if err != nil {
			return err
		}
		m, err := evU.StanzaMatches(newStanza, r)
		if err != nil {
			return err
		}
		handler := toOrig(vu.Index)
		// Condition 1.
		if handler != isNew && handler != vo.Index {
			return fmt.Errorf("disambig: condition 1 violated for %s: M'=%d, M=%d", r.Network, handler, vo.Index)
		}
		// Condition 2.
		if handler == isNew && !m {
			return fmt.Errorf("disambig: condition 2 violated for %s: handled by S* without matching it", r.Network)
		}
		observations = append(observations, obs{r: r, matches: m, handler: handler, origIdx: vo.Index})
	}
	// Condition 3 over all pairs.
	for _, a := range observations {
		if !a.matches || a.handler == isNew {
			continue
		}
		for _, b := range observations {
			if !b.matches || b.handler != isNew {
				continue
			}
			if origRank(a.origIdx) > origRank(b.origIdx) {
				return fmt.Errorf("disambig: condition 3 violated: keeper %s (orig rule %d) ranks after mover %s (orig rule %d)",
					a.r.Network, a.origIdx, b.r.Network, b.origIdx)
			}
		}
	}
	return nil
}
