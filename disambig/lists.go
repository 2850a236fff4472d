package disambig

import (
	"fmt"
	"slices"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/symbolic"
)

// This file extends disambiguation to the ancillary data structures the
// paper's §7 lists as future work: "the tool needs support for inserting
// entries into other data structures that can have conflicts like prefix
// lists, community-lists and AS-path lists". Each of these is itself a
// first-match permit/deny rule sequence over routes, so the §4 algorithm
// applies unchanged: compute per-entry first-match regions, keep the
// overlaps whose action differs from the new entry's, binary-search the gap
// with differential route examples.

// ListKind identifies the ancillary list family.
type ListKind int

// List kinds supported by list-level disambiguation.
const (
	KindPrefixList ListKind = iota
	KindCommunityList
	KindASPathList
)

func (k ListKind) String() string {
	switch k {
	case KindPrefixList:
		return "prefix-list"
	case KindCommunityList:
		return "community-list"
	case KindASPathList:
		return "as-path list"
	}
	return "list"
}

// ListQuestion is a differential example for a list insertion: a concrete
// route on which the new entry and the current list disagree.
type ListQuestion struct {
	Kind        ListKind
	List        string
	Input       route.Route
	NewPermit   bool
	OldPermit   bool
	ProbedEntry int
}

// String renders the question in OPTION 1 / OPTION 2 style.
func (q ListQuestion) String() string {
	return fmt.Sprintf("%s %s on route:\n%s\n\nOPTION 1 (new entry applies): %s\nOPTION 2 (existing behavior): %s",
		q.Kind, q.List, q.Input, actionWord(q.NewPermit), actionWord(q.OldPermit))
}

// ListOracle answers list-insertion questions.
type ListOracle interface {
	ChooseList(q ListQuestion) (preferNew bool, err error)
}

// FuncListOracle adapts a function to ListOracle.
type FuncListOracle func(q ListQuestion) (bool, error)

// ChooseList implements ListOracle.
func (f FuncListOracle) ChooseList(q ListQuestion) (bool, error) { return f(q) }

// ListResult reports a completed list insertion.
type ListResult struct {
	Config    *ios.Config
	Position  int // entry index within the (seq-sorted) list
	Questions []ListQuestion
	Overlaps  []int
}

// InsertPrefixListEntry disambiguates the placement of a new prefix-list
// entry. Entries are considered in sequence-number order and renumbered
// 10, 20, ... after insertion.
func InsertPrefixListEntry(orig *ios.Config, listName string, entry ios.PrefixListEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.PrefixLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: prefix-list %q not in configuration", listName)
	}
	l.Entries = l.BySeq()
	res, err := insertListEntry(KindPrefixList, listName, work, &l.Entries, entry, oracle,
		func(space *symbolic.RouteSpace, e ios.PrefixListEntry) (bdd.Node, bool, error) {
			return space.PrefixEntryPred(e), e.Permit, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range l.Entries {
		l.Entries[i].Seq = (i + 1) * 10
	}
	return res, nil
}

// InsertCommunityListEntry disambiguates the placement of a new
// community-list entry (standard or expanded must match the target list).
func InsertCommunityListEntry(orig *ios.Config, listName string, entry ios.CommunityListEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.CommunityLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: community-list %q not in configuration", listName)
	}
	wrapper := ios.NewConfig()
	wrapper.AddCommunityList("__NEW__", l.Expanded, entry)
	return insertListEntry(KindCommunityList, listName, work, &l.Entries, entry, oracle,
		func(space *symbolic.RouteSpace, e ios.CommunityListEntry) (bdd.Node, bool, error) {
			pred, err := space.CommunityEntryPred(l.Expanded, e)
			return pred, e.Permit, err
		}, wrapper)
}

// InsertASPathEntry disambiguates the placement of a new as-path list entry.
func InsertASPathEntry(orig *ios.Config, listName string, entry ios.ASPathEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.ASPathLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: as-path list %q not in configuration", listName)
	}
	wrapper := ios.NewConfig()
	wrapper.AddASPathList("__NEW__", entry)
	return insertListEntry(KindASPathList, listName, work, &l.Entries, entry, oracle,
		func(space *symbolic.RouteSpace, e ios.ASPathEntry) (bdd.Node, bool, error) {
			pred, err := space.ASPathEntryPred(e)
			return pred, e.Permit, err
		}, wrapper)
}

// insertListEntry is the §4 flow shared by the three list families: probe
// the entries of *entries, binary-search the gap, and insert entry there.
// rule encodes one entry: its match set and whether it permits. The space
// covers work and wrappers, throwaway configs that put the new entry's
// patterns in the atomic universe.
func insertListEntry[E any](kind ListKind, name string, work *ios.Config, entries *[]E, entry E, oracle ListOracle, rule func(*symbolic.RouteSpace, E) (bdd.Node, bool, error), wrappers ...*ios.Config) (*ListResult, error) {
	space, err := symbolic.NewRouteSpace(append([]*ios.Config{work}, wrappers...)...)
	if err != nil {
		return nil, err
	}
	probes, err := listProbes(space, kind, name, *entries, entry, rule)
	if err != nil {
		return nil, err
	}
	pl, err := place(nil, "probed-entry", StrategyBinary, probes, nil, func(q ListQuestion) (bool, error) { return oracle.ChooseList(q) })
	if err != nil {
		return nil, err
	}
	*entries = slices.Insert(*entries, pl.pos, entry)
	return &ListResult{Config: work, Position: pl.pos, Questions: pl.questions, Overlaps: pl.overlaps}, nil
}

// listProbes finds the entries whose action differs from the new entry's
// and whose first-match region inside the new entry's routes is non-empty,
// with a witness route from that region each. Every entry is encoded, the new
// one first, before the fold.
func listProbes[E any](space *symbolic.RouteSpace, kind ListKind, name string, entries []E, entry E, rule func(*symbolic.RouteSpace, E) (bdd.Node, bool, error)) ([]probe[ListQuestion], error) {
	newPred, newPermit, err := rule(space, entry)
	if err != nil {
		return nil, err
	}
	preds := make([]bdd.Node, len(entries))
	permits := make([]bool, len(entries))
	for i, e := range entries {
		if preds[i], permits[i], err = rule(space, e); err != nil {
			return nil, err
		}
	}
	// Probes need first-match regions only inside the new entry's routes.
	regions := symbolic.FoldFirstMatch(space.Pool, space.Pool.And(newPred, space.Valid), len(preds), func(i int) bdd.Node { return preds[i] })
	var probes []probe[ListQuestion]
	for i, permit := range permits {
		if permit == newPermit {
			continue // same action: placement unobservable
		}
		w, ok, err := space.Witness(regions[i])
		if err != nil {
			return nil, err
		}
		if ok {
			probes = append(probes, probe[ListQuestion]{rule: i, region: regions[i], question: ListQuestion{
				Kind: kind, List: name, Input: w, NewPermit: newPermit, OldPermit: permit, ProbedEntry: i,
			}})
		}
	}
	return probes, nil
}

// SimUserList answers list questions from a target configuration's
// semantics, mirroring SimUser for route maps.
type SimUserList struct {
	Target   *ios.Config
	Kind     ListKind
	ListName string
	Asked    int

	ev *policy.Evaluator // over Target, built on the first question
}

// ChooseList implements ListOracle.
func (u *SimUserList) ChooseList(q ListQuestion) (bool, error) {
	u.Asked++
	u.ev = targetEvaluator(u.ev, u.Target)
	var clause ios.Match
	switch u.Kind {
	case KindPrefixList:
		clause = ios.MatchPrefixList{List: u.ListName}
	case KindCommunityList:
		clause = ios.MatchCommunity{List: u.ListName}
	case KindASPathList:
		clause = ios.MatchASPath{List: u.ListName}
	}
	want, err := u.ev.MatchHolds(clause, q.Input)
	if err != nil {
		return false, err
	}
	switch want {
	case q.NewPermit:
		return true, nil
	case q.OldPermit:
		return false, nil
	}
	return false, fmt.Errorf("disambig: list target matches neither option")
}
