package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/ambiguity"
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
	return InsertACLEntryTraced(nil, orig, aclName, snippet, snippetACL, oracle, nil)
}

// InsertACLEntryTraced is InsertACLEntry working in space (nil builds one,
// released before returning) and recording the disambiguation workload
// under sp (which may be nil). An update shares one space between
// verification and disambiguation; what the space already holds does not
// change the outcome.
func InsertACLEntryTraced(space *symbolic.ACLSpace, orig *ios.Config, aclName string, snippet *ios.Config, snippetACL string, oracle ACLOracle, sp *obs.Span) (*ACLResult, error) {
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

	if space == nil {
		space = symbolic.NewACLSpace()
		defer space.Release()
	}
	defer space.ObserveInto(sp, space.Pool.Counters())
	probes := aclProbes(space, acl, newEntry)

	meter := startMeter(sp, space.Pool, "acl", StrategyBinary, probes)
	pl, err := place(sp, "probed-entry", StrategyBinary, probes, meter, func(q ACLQuestion) (bool, error) { return oracle.ChooseACL(q) })
	if err != nil {
		return nil, err
	}
	insSp := sp.Child("insert")
	acl.InsertEntry(pl.pos, newEntry)
	insSp.SetInt("position", int64(pl.pos))
	insSp.End()
	return &ACLResult{Config: work, Position: pl.pos, Questions: pl.questions, Overlaps: pl.overlaps, Ambiguity: pl.ledger}, nil
}

// aclProbes finds the entries of acl whose first-match regions hold packets
// of newEntry and take the other action, each with a witness packet.
func aclProbes(space *symbolic.ACLSpace, acl *ios.ACL, newEntry *ios.ACE) []probe[ACLQuestion] {
	// Probes need first-match regions only inside the new entry's packets.
	regions := space.FirstMatchWithin(acl, newEntry)
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
	return probes
}
