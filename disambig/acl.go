package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/symbolic"
)

// ACLResult reports a completed ACL insertion.
type ACLResult struct {
	Config    *ios.Config
	Position  int
	Questions []ACLQuestion
	Overlaps  []int
	// Ambiguity is the run's information-gain ledger; nil when untraced.
	Ambiguity *ambiguity.Ledger
}

// InsertACLEntry runs the disambiguation flow for access lists: locate the
// entries whose first-match regions intersect the new entry with a different
// action, binary-search the insertion gap, insert and renumber.
func InsertACLEntry(orig *ios.Config, aclName string, snippet *ios.Config, snippetACL string, oracle ACLOracle) (*ACLResult, error) {
	return insertACLEntry(orig, aclName, snippet, snippetACL, oracle, nil)
}

// insertACLEntry is the shared implementation, charging the symbolic work
// and oracle waits to sp (which may be nil).
func insertACLEntry(orig *ios.Config, aclName string, snippet *ios.Config, snippetACL string, oracle ACLOracle, sp *obs.Span) (*ACLResult, error) {
	if _, ok := orig.ACLs[aclName]; !ok {
		return nil, fmt.Errorf("disambig: ACL %q not in configuration", aclName)
	}
	snipACL, ok := snippet.ACLs[snippetACL]
	if !ok {
		return nil, fmt.Errorf("disambig: snippet lacks ACL %q", snippetACL)
	}
	if len(snipACL.Entries) != 1 {
		return nil, fmt.Errorf("disambig: snippet has %d entries, want exactly 1", len(snipACL.Entries))
	}
	work := orig.Clone()
	acl := work.ACLs[aclName]
	newEntry := snipACL.Entries[0].Clone()

	space := symbolic.NewACLSpace()
	defer space.ObserveInto(sp, space.Pool.Counters())
	// Probes need first-match regions only inside the new entry's packets.
	regions := space.FirstMatchWithin(acl, space.ACEPred(newEntry))

	var probes []probe[ACLQuestion]
	for i, e := range acl.Entries {
		if e.Permit == newEntry.Permit {
			continue // same action: placement relative to this entry is unobservable
		}
		pk, ok := space.Witness(regions[i])
		if !ok {
			continue // no packet of the new entry reaches entry i
		}
		v := policy.EvalACL(acl, pk)
		if v.Index != i {
			// Decode must land in the first-match region by construction;
			// defensive skip otherwise.
			continue
		}
		probes = append(probes, probe[ACLQuestion]{rule: i, question: ACLQuestion{
			Input:       pk,
			NewPermit:   newEntry.Permit,
			OldPermit:   e.Permit,
			ProbedEntry: i,
		}, region: regions[i]})
	}

	var meter *ambiguity.Meter
	if sp != nil {
		pregions := make([]bdd.Node, len(probes))
		for i, p := range probes {
			pregions[i] = p.region
		}
		meter = ambiguity.NewMeter(space.Pool, "acl", StrategyBinary.String(), pregions)
	}

	result := &ACLResult{}
	for _, p := range probes {
		result.Overlaps = append(result.Overlaps, p.rule)
	}
	gap, err := searchGap(StrategyBinary, len(probes), func(i int) (bool, error) {
		q := probes[i].question
		preferNew, err := chooseACL(oracle, sp, q)
		if err == nil {
			result.Questions = append(result.Questions, q)
		}
		return preferNew, err
	}, meter)
	if err != nil {
		return nil, err
	}
	result.Ambiguity = meter.Finish(gap, gap)
	ambiguity.Annotate(sp, result.Ambiguity)
	pos := 0
	if gap > 0 {
		pos = probes[gap-1].rule + 1
	}
	insSp := sp.Child("insert")
	acl.InsertEntry(pos, newEntry)
	insSp.SetInt("position", int64(pos))
	insSp.End()
	result.Config = work
	result.Position = pos
	return result, nil
}
