package disambig

import (
	"fmt"
	"sort"

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

// listProblem abstracts the three list families over a common first-match
// core.
type listProblem struct {
	kind     ListKind
	name     string
	work     *ios.Config
	space    *symbolic.RouteSpace
	preds    []bdd.Node // per existing entry, in evaluation order
	permits  []bool
	newPred  bdd.Node
	newPerm  bool
	insert   func(pos int) // mutates work
	matchRef ios.Match     // clause used to evaluate target semantics concretely
}

// InsertPrefixListEntry disambiguates the placement of a new prefix-list
// entry. Entries are considered in sequence-number order and renumbered
// 10, 20, ... after insertion.
func InsertPrefixListEntry(orig *ios.Config, listName string, entry ios.PrefixListEntry, oracle ListOracle) (*ListResult, error) {
	return InsertPrefixListEntryCached(nil, orig, listName, entry, oracle)
}

// InsertPrefixListEntryCached is InsertPrefixListEntry drawing its symbolic
// universe from cache (which may be nil).
func InsertPrefixListEntryCached(cache *symbolic.SpaceCache, orig *ios.Config, listName string, entry ios.PrefixListEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.PrefixLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: prefix-list %q not in configuration", listName)
	}
	sort.SliceStable(l.Entries, func(i, j int) bool { return l.Entries[i].Seq < l.Entries[j].Seq })
	space, err := cache.Acquire(work)
	if err != nil {
		return nil, err
	}
	defer cache.Release(space)
	p := &listProblem{
		kind:    KindPrefixList,
		name:    listName,
		work:    work,
		space:   space,
		newPred: space.PrefixEntryPred(entry),
		newPerm: entry.Permit,
	}
	for _, e := range l.Entries {
		p.preds = append(p.preds, space.PrefixEntryPred(e))
		p.permits = append(p.permits, e.Permit)
	}
	p.insert = func(pos int) {
		l.Entries = append(l.Entries, ios.PrefixListEntry{})
		copy(l.Entries[pos+1:], l.Entries[pos:])
		l.Entries[pos] = entry
		for i := range l.Entries {
			l.Entries[i].Seq = (i + 1) * 10
		}
	}
	return p.run(oracle)
}

// InsertCommunityListEntry disambiguates the placement of a new
// community-list entry (standard or expanded must match the target list).
func InsertCommunityListEntry(orig *ios.Config, listName string, entry ios.CommunityListEntry, oracle ListOracle) (*ListResult, error) {
	return InsertCommunityListEntryCached(nil, orig, listName, entry, oracle)
}

// InsertCommunityListEntryCached is InsertCommunityListEntry drawing its
// symbolic universe from cache (which may be nil).
func InsertCommunityListEntryCached(cache *symbolic.SpaceCache, orig *ios.Config, listName string, entry ios.CommunityListEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.CommunityLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: community-list %q not in configuration", listName)
	}
	// The new entry's regex/literals must be in the atomic universe: wrap it
	// in a throwaway config.
	wrapper := ios.NewConfig()
	wrapper.AddCommunityList("__NEW__", l.Expanded, entry)
	space, err := cache.Acquire(work, wrapper)
	if err != nil {
		return nil, err
	}
	defer cache.Release(space)
	newPred, err := space.CommunityEntryPred(l.Expanded, entry)
	if err != nil {
		return nil, err
	}
	p := &listProblem{
		kind:    KindCommunityList,
		name:    listName,
		work:    work,
		space:   space,
		newPred: newPred,
		newPerm: entry.Permit,
	}
	for _, e := range l.Entries {
		pred, err := space.CommunityEntryPred(l.Expanded, e)
		if err != nil {
			return nil, err
		}
		p.preds = append(p.preds, pred)
		p.permits = append(p.permits, e.Permit)
	}
	p.insert = func(pos int) {
		l.Entries = append(l.Entries, ios.CommunityListEntry{})
		copy(l.Entries[pos+1:], l.Entries[pos:])
		l.Entries[pos] = entry
	}
	return p.run(oracle)
}

// InsertASPathEntry disambiguates the placement of a new as-path list entry.
func InsertASPathEntry(orig *ios.Config, listName string, entry ios.ASPathEntry, oracle ListOracle) (*ListResult, error) {
	return InsertASPathEntryCached(nil, orig, listName, entry, oracle)
}

// InsertASPathEntryCached is InsertASPathEntry drawing its symbolic universe
// from cache (which may be nil).
func InsertASPathEntryCached(cache *symbolic.SpaceCache, orig *ios.Config, listName string, entry ios.ASPathEntry, oracle ListOracle) (*ListResult, error) {
	work := orig.Clone()
	l, ok := work.ASPathLists[listName]
	if !ok {
		return nil, fmt.Errorf("disambig: as-path list %q not in configuration", listName)
	}
	wrapper := ios.NewConfig()
	wrapper.AddASPathList("__NEW__", entry)
	space, err := cache.Acquire(work, wrapper)
	if err != nil {
		return nil, err
	}
	defer cache.Release(space)
	newPred, err := space.ASPathEntryPred(entry)
	if err != nil {
		return nil, err
	}
	p := &listProblem{
		kind:    KindASPathList,
		name:    listName,
		work:    work,
		space:   space,
		newPred: newPred,
		newPerm: entry.Permit,
	}
	for _, e := range l.Entries {
		pred, err := space.ASPathEntryPred(e)
		if err != nil {
			return nil, err
		}
		p.preds = append(p.preds, pred)
		p.permits = append(p.permits, e.Permit)
	}
	p.insert = func(pos int) {
		l.Entries = append(l.Entries, ios.ASPathEntry{})
		copy(l.Entries[pos+1:], l.Entries[pos:])
		l.Entries[pos] = entry
	}
	return p.run(oracle)
}

// run is the shared §4 core over list entries.
func (p *listProblem) run(oracle ListOracle) (*ListResult, error) {
	pool := p.space.Pool
	type probe struct {
		entry    int
		question ListQuestion
	}
	var probes []probe
	notPrev := bdd.True
	for i, pred := range p.preds {
		firstMatch := pool.And(notPrev, pred)
		notPrev = pool.And(notPrev, pool.Not(pred))
		if p.permits[i] == p.newPerm {
			continue // same action: placement unobservable
		}
		shared := pool.AndN(firstMatch, p.newPred, p.space.Valid)
		if shared == bdd.False {
			continue
		}
		w, ok, err := p.space.Witness(shared)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		probes = append(probes, probe{entry: i, question: ListQuestion{
			Kind:        p.kind,
			List:        p.name,
			Input:       w,
			NewPermit:   p.newPerm,
			OldPermit:   p.permits[i],
			ProbedEntry: i,
		}})
	}
	res := &ListResult{}
	for _, pr := range probes {
		res.Overlaps = append(res.Overlaps, pr.entry)
	}
	gap, err := searchGap(StrategyBinary, len(probes), func(i int) (bool, error) {
		preferNew, err := oracle.ChooseList(probes[i].question)
		if err == nil {
			res.Questions = append(res.Questions, probes[i].question)
		}
		return preferNew, err
	}, nil)
	if err != nil {
		return nil, err
	}
	pos := 0
	if gap > 0 {
		pos = probes[gap-1].entry + 1
	}
	p.insert(pos)
	res.Config = p.work
	res.Position = pos
	return res, nil
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
