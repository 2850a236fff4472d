package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/symbolic"
)

// This file implements the second §7 future-work item: deleting and
// modifying existing rules. Deletions and modifications are not placement
// problems — the location is given — but they carry the same regression risk
// the paper motivates: removing a stanza re-routes every input it used to
// capture to whichever later stanza matches next. Instead of questions, the
// tool computes the *semantic impact*: a differential comparison between the
// configuration before and after the edit, with concrete example routes, so
// the user confirms the behavioural delta rather than guessing it.

// Impact is one behavioural change caused by an edit.
type Impact struct {
	// Example is a concrete differential input with both verdicts.
	Example analysis.Diff
}

// EditResult reports a completed deletion or modification.
type EditResult struct {
	Config *ios.Config
	// Impacts are confirmed behavioural changes (up to the requested bound);
	// empty means the edit is observationally invisible (dead rule).
	Impacts []Impact
}

// DeleteRouteMapStanza removes the stanza at index (0-based) from the named
// route map and reports up to maxImpacts behavioural changes.
func DeleteRouteMapStanza(orig *ios.Config, mapName string, index, maxImpacts int) (*EditResult, error) {
	rm, ok := orig.RouteMaps[mapName]
	if !ok {
		return nil, fmt.Errorf("disambig: route-map %q not in configuration", mapName)
	}
	if index < 0 || index >= len(rm.Stanzas) {
		return nil, fmt.Errorf("disambig: stanza index %d out of range [0,%d)", index, len(rm.Stanzas))
	}
	work := orig.Clone()
	wrm := work.RouteMaps[mapName]
	wrm.Stanzas = append(wrm.Stanzas[:index], wrm.Stanzas[index+1:]...)
	wrm.Renumber()
	return editImpact(orig, work, mapName, maxImpacts)
}

// ReplaceRouteMapStanza swaps the stanza at index for a new one (which must
// reference only lists already defined in the configuration) and reports the
// behavioural changes.
func ReplaceRouteMapStanza(orig *ios.Config, mapName string, index int, stanza *ios.Stanza, maxImpacts int) (*EditResult, error) {
	rm, ok := orig.RouteMaps[mapName]
	if !ok {
		return nil, fmt.Errorf("disambig: route-map %q not in configuration", mapName)
	}
	if index < 0 || index >= len(rm.Stanzas) {
		return nil, fmt.Errorf("disambig: stanza index %d out of range [0,%d)", index, len(rm.Stanzas))
	}
	work := orig.Clone()
	st := stanza.Clone()
	st.Seq = work.RouteMaps[mapName].Stanzas[index].Seq
	work.RouteMaps[mapName].Stanzas[index] = st
	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("disambig: replacement stanza: %w", err)
	}
	return editImpact(orig, work, mapName, maxImpacts)
}

func editImpact(before, after *ios.Config, mapName string, maxImpacts int) (*EditResult, error) {
	if maxImpacts <= 0 {
		maxImpacts = 4
	}
	space, err := symbolic.NewRouteSpace(before, after)
	if err != nil {
		return nil, err
	}
	diffs, err := analysis.CompareRouteMaps(space,
		before, before.RouteMaps[mapName],
		after, after.RouteMaps[mapName], maxImpacts)
	if err != nil {
		return nil, err
	}
	res := &EditResult{Config: after}
	for _, d := range diffs {
		res.Impacts = append(res.Impacts, Impact{Example: d})
	}
	return res, nil
}

// DeleteACLEntry removes the entry at index from the named ACL and reports
// up to maxImpacts behavioural changes (concrete packets whose fate flips).
func DeleteACLEntry(orig *ios.Config, aclName string, index, maxImpacts int) (*ACLEditResult, error) {
	acl, ok := orig.ACLs[aclName]
	if !ok {
		return nil, fmt.Errorf("disambig: ACL %q not in configuration", aclName)
	}
	if index < 0 || index >= len(acl.Entries) {
		return nil, fmt.Errorf("disambig: entry index %d out of range [0,%d)", index, len(acl.Entries))
	}
	if maxImpacts <= 0 {
		maxImpacts = 4
	}
	work := orig.Clone()
	wacl := work.ACLs[aclName]
	wacl.Entries = append(wacl.Entries[:index], wacl.Entries[index+1:]...)
	wacl.Renumber()

	space := symbolic.NewACLSpace()
	defer space.Release()
	changed := space.Pool.Xor(space.PermitSet(acl), space.PermitSet(wacl))
	res := &ACLEditResult{Config: work}
	space.Pool.AllSat(changed, func(cube bdd.Cube) bool {
		res.Changed = append(res.Changed, ACLImpact{Packet: space.Decode(cube).String()})
		return len(res.Changed) < maxImpacts
	})
	return res, nil
}

// ACLEditResult reports an ACL edit's behavioural delta.
type ACLEditResult struct {
	Config *ios.Config
	// Changed holds example packets whose permit/deny fate flipped; empty
	// means the removed entry was dead (shadowed or redundant).
	Changed []ACLImpact
}

// ACLImpact is one flipped packet.
type ACLImpact struct {
	Packet string
}
