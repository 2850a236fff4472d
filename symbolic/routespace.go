// Package symbolic encodes routes, packets, and the policies that match them
// as BDD predicates, and decodes BDD models back into concrete witnesses.
//
// It is the replacement for Batfish's symbolic route/filter analysis: route
// attributes become bit vectors, community and AS-path matching become
// atomic-predicate variables (internal/atoms), match clauses become BDDs,
// and first-match semantics becomes the usual ¬earlier ∧ this chain. The
// concrete evaluator (internal/policy) and this encoder are kept in lockstep
// by property tests.
package symbolic

import (
	"fmt"
	"math/bits"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"github.com/clarifynet/clarify/atoms"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/route"
)

// RouteSpace encodes the BGP route universe for a fixed set of
// configurations. All configurations whose policies will be compared must be
// passed to NewRouteSpace together so their regexes share one atomic
// partition.
type RouteSpace struct {
	Pool *bdd.Pool

	plen, addr, lp, med, tag, weight, nh bdd.Vec
	// path holds the route's AS-path atom as an index: atom i is the value
	// k−1−i, and k stands for a path in no atom.
	path bdd.Vec
	// offCommAtoms is the level of community atom 0; each community atom
	// has a variable of its own, because a route carries a set of them.
	offCommAtoms int

	pathAtoms *atoms.Universe
	commAtoms *atoms.Universe
	// automata compiled this space's patterns: the owning SpaceCache's table,
	// or a private one for a space built without a cache.
	automata *ciscorx.Memo

	// Valid constrains models to decodable routes: prefix length ≤ 32 and
	// an AS path in some atom.
	Valid bdd.Node

	// fp is the content fingerprint of the inputs that determined this
	// universe; set by SpaceCache.Acquire so Release can file the space back.
	fp string
}

// spacePatterns collects, in deterministic order, exactly the inputs that
// determine a RouteSpace: every as-path regex, community regex and community
// literal (including set-community literals) appearing in the given configs.
// Two config sets with identical pattern sequences produce structurally
// identical universes, which is what makes SpaceCache sound.
//
// Iteration over the config maps is order-sensitive, so patterns are gathered
// per list in name-sorted order.
func spacePatterns(cfgs []*ios.Config) (pathPatterns, commPatterns []string) {
	for _, cfg := range cfgs {
		for _, name := range sortedKeys(cfg.ASPathLists) {
			for _, e := range cfg.ASPathLists[name].Entries {
				pathPatterns = append(pathPatterns, e.Regex)
			}
		}
		for _, name := range sortedKeys(cfg.CommunityLists) {
			l := cfg.CommunityLists[name]
			for _, e := range l.Entries {
				if l.Expanded {
					commPatterns = append(commPatterns, e.Values[0])
				} else {
					for _, lit := range e.Values {
						commPatterns = append(commPatterns, exactCommunityPattern(lit))
					}
				}
			}
		}
		// Set clauses introduce communities the comparison logic must be able
		// to express exactly.
		for _, name := range sortedKeys(cfg.RouteMaps) {
			for _, st := range cfg.RouteMaps[name].Stanzas {
				for _, s := range st.Sets {
					if sc, ok := s.(ios.SetCommunity); ok {
						for _, lit := range sc.Communities {
							commPatterns = append(commPatterns, exactCommunityPattern(lit))
						}
					}
				}
			}
		}
	}
	return pathPatterns, commPatterns
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewRouteSpace builds the route universe covering every as-path regex,
// community regex and community literal appearing in the given configs. The
// space compiles its patterns through a private automaton table.
func NewRouteSpace(cfgs ...*ios.Config) (*RouteSpace, error) {
	return newRouteSpace(ciscorx.NewMemo(), cfgs)
}

func newRouteSpace(automata *ciscorx.Memo, cfgs []*ios.Config) (*RouteSpace, error) {
	pathPatterns, commPatterns := spacePatterns(cfgs)
	pathU, err := atoms.BuildWithLiterals(pathPatterns, nil, automata.Path, automata.PathSplit)
	if err != nil {
		return nil, err
	}
	commU, err := atoms.BuildWithLiterals(commPatterns, ciscorx.CommunityLiteral, automata.Community, automata.CommunitySplit)
	if err != nil {
		return nil, err
	}

	p := bdd.NewPool(0)
	k := pathU.NumAtoms() // ≥ 1: the atoms partition a non-empty universe
	// Fields from the top of the variable order down; widths are in bits.
	s := &RouteSpace{
		Pool:      p,
		plen:      newVec(p, 6),
		addr:      newVec(p, 32),
		lp:        newVec(p, 32),
		med:       newVec(p, 32),
		tag:       newVec(p, 32),
		weight:    newVec(p, 16),
		nh:        newVec(p, 32),
		path:      newVec(p, bits.Len(uint(k))),
		pathAtoms: pathU,
		commAtoms: commU,
		automata:  automata,
	}
	s.offCommAtoms = p.AddVars(commU.NumAtoms())
	s.Valid = p.And(s.plen.LeqConst(32), s.path.LeqConst(uint64(k-1)))
	return s, nil
}

// newVec lays out a field of width variables below every variable of p, so
// fields sit in the order of the calls, the first at the top. Go makes the
// calls in a composite literal from left to right.
func newVec(p *bdd.Pool, width int) bdd.Vec {
	return bdd.NewVec(p, p.AddVars(width), width)
}

func exactCommunityPattern(lit string) string { return "^" + lit + "$" }

// pathIndex is the value of the path vector for AS-path atom ai. Atoms are
// numbered from the top down: AnySat and AllSat take low branches first, so
// a region's first model takes its last feasible atom, the witness that
// pinned questions and recorded ledgers rely on.
func (s *RouteSpace) pathIndex(ai int) uint64 {
	return uint64(s.pathAtoms.NumAtoms() - 1 - ai)
}

// Automata returns the table the space compiled its patterns through. An
// evaluator built on it (policy.NewEvaluatorWith) reuses those automata
// instead of compiling the same regexes again. The table outlives the space
// when a SpaceCache owns it and is safe for concurrent use.
func (s *RouteSpace) Automata() *ciscorx.Memo { return s.automata }

// NumVars reports the universe's variable count (for sizing diagnostics).
func (s *RouteSpace) NumVars() int { return s.Pool.NumVars() }

// PathAtomCount and CommAtomCount expose partition sizes (ablation benches).
func (s *RouteSpace) PathAtomCount() int { return s.pathAtoms.NumAtoms() }

// CommAtomCount reports the community partition size.
func (s *RouteSpace) CommAtomCount() int { return s.commAtoms.NumAtoms() }

// ---------- Clause encodings ----------

// StanzaPred returns the BDD for "every match clause of st holds".
func (s *RouteSpace) StanzaPred(cfg *ios.Config, st *ios.Stanza) (bdd.Node, error) {
	pred := bdd.True
	for _, m := range st.Matches {
		mp, err := s.MatchPred(cfg, m)
		if err != nil {
			return bdd.False, err
		}
		pred = s.Pool.And(pred, mp)
	}
	return pred, nil
}

// MatchPred encodes one match clause.
func (s *RouteSpace) MatchPred(cfg *ios.Config, m ios.Match) (bdd.Node, error) {
	switch m := m.(type) {
	case ios.MatchASPath:
		l, ok := cfg.ASPathLists[m.List]
		if !ok {
			return bdd.False, fmt.Errorf("symbolic: undefined as-path list %q", m.List)
		}
		return s.asPathListPred(l)
	case ios.MatchPrefixList:
		l, ok := cfg.PrefixLists[m.List]
		if !ok {
			return bdd.False, fmt.Errorf("symbolic: undefined prefix-list %q", m.List)
		}
		return s.PrefixListPred(l), nil
	case ios.MatchCommunity:
		l, ok := cfg.CommunityLists[m.List]
		if !ok {
			return bdd.False, fmt.Errorf("symbolic: undefined community-list %q", m.List)
		}
		return s.communityListPred(l)
	case ios.MatchNextHop:
		l, ok := cfg.PrefixLists[m.List]
		if !ok {
			return bdd.False, fmt.Errorf("symbolic: undefined next-hop prefix-list %q", m.List)
		}
		return s.nextHopListPred(l), nil
	case ios.MatchLocalPref:
		return s.lp.EqConst(uint64(m.Value)), nil
	case ios.MatchMetric:
		return s.med.EqConst(uint64(m.Value)), nil
	case ios.MatchTag:
		return s.tag.EqConst(uint64(m.Value)), nil
	default:
		return bdd.False, fmt.Errorf("symbolic: unsupported match clause %T", m)
	}
}

// PrefixListPred encodes first-match permit/deny entry semantics.
func (s *RouteSpace) PrefixListPred(l *ios.PrefixList) bdd.Node {
	return s.prefixListPred(l, s.prefixEntryPred)
}

func (s *RouteSpace) prefixEntryPred(e ios.PrefixListEntry) bdd.Node {
	lo, hi := e.LenRange()
	addr := uint64(ios.AddrU32(e.Prefix.Addr()))
	return s.Pool.And(
		s.addr.PrefixEq(addr, e.Prefix.Bits()),
		s.plen.InRange(uint64(lo), uint64(hi)),
	)
}

// nextHopListPred applies prefix-list first-match chaining to the next-hop
// vector (the address is a /32, so only entries whose length range includes
// 32 can match).
func (s *RouteSpace) nextHopListPred(l *ios.PrefixList) bdd.Node {
	return s.prefixListPred(l, func(e ios.PrefixListEntry) bdd.Node {
		if lo, hi := e.LenRange(); lo > 32 || hi < 32 {
			return bdd.False
		}
		return s.nh.PrefixEq(uint64(ios.AddrU32(e.Prefix.Addr())), e.Prefix.Bits())
	})
}

// prefixListPred folds a prefix list's entries, in sequence order as the
// evaluator takes them, with match as each entry's match set.
func (s *RouteSpace) prefixListPred(l *ios.PrefixList, match func(ios.PrefixListEntry) bdd.Node) bdd.Node {
	entries := l.BySeq()
	regions := FoldFirstMatch(s.Pool, bdd.True, len(entries), func(i int) bdd.Node { return match(entries[i]) })
	return permitted(s.Pool, regions, func(i int) bool { return entries[i].Permit })
}

// PrefixEntryPred exposes the match region of a single prefix-list entry
// (used by list-level disambiguation).
func (s *RouteSpace) PrefixEntryPred(e ios.PrefixListEntry) bdd.Node {
	return s.prefixEntryPred(e)
}

// ASPathEntryPred returns the set of routes whose AS path matches the
// entry's regex. The regex must be in the universe (include a config
// defining it when constructing the space).
func (s *RouteSpace) ASPathEntryPred(e ios.ASPathEntry) (bdd.Node, error) {
	pi := s.pathAtoms.PatternIndex(e.Regex)
	if pi < 0 {
		return bdd.False, fmt.Errorf("symbolic: as-path regex %q not in universe (config not passed to NewRouteSpace?)", e.Regex)
	}
	m := bdd.False
	for _, ai := range s.pathAtoms.MatchingAtoms(pi) {
		m = s.Pool.Or(m, s.path.EqConst(s.pathIndex(ai)))
	}
	return m, nil
}

// CommunityEntryPred returns the set of routes matched by a single
// community-list entry: for expanded lists, some community matches the
// regex; for standard lists, every listed literal is present.
func (s *RouteSpace) CommunityEntryPred(expanded bool, e ios.CommunityListEntry) (bdd.Node, error) {
	p := s.Pool
	if expanded {
		pi := s.commAtoms.PatternIndex(e.Values[0])
		if pi < 0 {
			return bdd.False, fmt.Errorf("symbolic: community regex %q not in universe", e.Values[0])
		}
		m := bdd.False
		for _, ai := range s.commAtoms.MatchingAtoms(pi) {
			m = p.Or(m, p.Var(s.offCommAtoms+ai))
		}
		return m, nil
	}
	m := bdd.True
	for _, lit := range e.Values {
		av, err := s.literalCommunityVar(lit)
		if err != nil {
			return bdd.False, err
		}
		m = p.And(m, av)
	}
	return m, nil
}

// asPathListPred and communityListPred encode every entry before folding,
// so an entry that fails to encode is an error even behind one that matches
// every route.
func (s *RouteSpace) asPathListPred(l *ios.ASPathList) (bdd.Node, error) {
	preds := make([]bdd.Node, len(l.Entries))
	for i, e := range l.Entries {
		m, err := s.ASPathEntryPred(e)
		if err != nil {
			return bdd.False, err
		}
		preds[i] = m
	}
	regions := FoldFirstMatch(s.Pool, bdd.True, len(preds), func(i int) bdd.Node { return preds[i] })
	return permitted(s.Pool, regions, func(i int) bool { return l.Entries[i].Permit }), nil
}

func (s *RouteSpace) communityListPred(l *ios.CommunityList) (bdd.Node, error) {
	preds := make([]bdd.Node, len(l.Entries))
	for i, e := range l.Entries {
		m, err := s.CommunityEntryPred(l.Expanded, e)
		if err != nil {
			return bdd.False, err
		}
		preds[i] = m
	}
	regions := FoldFirstMatch(s.Pool, bdd.True, len(preds), func(i int) bdd.Node { return preds[i] })
	return permitted(s.Pool, regions, func(i int) bool { return l.Entries[i].Permit }), nil
}

// literalCommunityVar returns the atom variable for the singleton atom {lit}.
func (s *RouteSpace) literalCommunityVar(lit string) (bdd.Node, error) {
	pi := s.commAtoms.PatternIndex(exactCommunityPattern(lit))
	if pi < 0 {
		return bdd.False, fmt.Errorf("symbolic: community literal %q not in universe", lit)
	}
	matching := s.commAtoms.MatchingAtoms(pi)
	if len(matching) != 1 {
		return bdd.False, fmt.Errorf("symbolic: literal %q atom not singleton (%d atoms)", lit, len(matching))
	}
	return s.Pool.Var(s.offCommAtoms + matching[0]), nil
}

// FirstMatch returns, for each stanza, the BDD of routes first-matched by it,
// plus a final region for routes matching no stanza (the implicit deny).
//
// Route maps using `continue` are rejected: with continue, the first
// matching stanza no longer decides the verdict, so every analysis built on
// these regions (comparison, placement) would be unsound. Overlap analysis
// does not use FirstMatch and accepts continue, exactly as the paper's §3
// measurement does ("we ignore actions for route maps because a route-map
// stanza may be linked ... using goto, continue and call statements").
func (s *RouteSpace) FirstMatch(cfg *ios.Config, rm *ios.RouteMap) ([]bdd.Node, error) {
	return s.firstMatch(cfg, rm, nil, bdd.True)
}

// FirstMatchWithin returns len(rm.Stanzas)+1 regions inside the valid routes
// of st: stanza i's first-match region ∧ StanzaPred(st) ∧ Valid, then the
// routes of that domain no stanza matches. A stanza whose match box misses
// st's (addressBox) encodes to False without its address prefix lists, so
// it takes nothing from the domain. Every stanza is encoded before the
// fold, so a stanza that fails to encode is an error even behind one that
// matches every route, and the map's errors come before st's own.
func (s *RouteSpace) FirstMatchWithin(cfg *ios.Config, rm *ios.RouteMap, st *ios.Stanza) ([]bdd.Node, error) {
	pred, stErr := s.StanzaPred(cfg, st)
	box, _ := addressBox(cfg, st)
	regions, err := s.firstMatch(cfg, rm, box, s.Pool.And(pred, s.Valid))
	if err != nil {
		return nil, err
	}
	if stErr != nil {
		return nil, stErr
	}
	return regions, nil
}

// firstMatch encodes every stanza of rm, each to False when its match box
// misses box, and folds them over domain.
func (s *RouteSpace) firstMatch(cfg *ios.Config, rm *ios.RouteMap, box []*ios.PrefixList, domain bdd.Node) ([]bdd.Node, error) {
	if rm.HasContinue() {
		return nil, fmt.Errorf("symbolic: route-map %s uses continue; first-match analyses are unsupported", rm.Name)
	}
	preds := make([]bdd.Node, len(rm.Stanzas))
	for i, st := range rm.Stanzas {
		pred, err := s.stanzaPredIn(cfg, st, box)
		if err != nil {
			return nil, err
		}
		preds[i] = pred
	}
	return FoldFirstMatch(s.Pool, domain, len(preds), func(i int) bdd.Node { return preds[i] }), nil
}

// addressBox returns the lists of st's `match ip address prefix-list`
// clauses: its match box, since a prefix list permits only routes inside
// its permit entries. ok is false when a list is undefined.
func addressBox(cfg *ios.Config, st *ios.Stanza) (box []*ios.PrefixList, ok bool) {
	for _, m := range st.Matches {
		if m, isList := m.(ios.MatchPrefixList); isList {
			l, defined := cfg.PrefixLists[m.List]
			if !defined {
				return nil, false
			}
			box = append(box, l)
		}
	}
	return box, true
}

// stanzaPredIn is StanzaPred, or False when st's match box misses box. A
// stanza it skips still encodes its other clauses, so it fails exactly
// where StanzaPred does.
func (s *RouteSpace) stanzaPredIn(cfg *ios.Config, st *ios.Stanza, box []*ios.PrefixList) (bdd.Node, error) {
	if !missesBox(cfg, st, box) {
		return s.StanzaPred(cfg, st)
	}
	for _, m := range st.Matches {
		if _, isList := m.(ios.MatchPrefixList); !isList {
			if _, err := s.MatchPred(cfg, m); err != nil {
				return bdd.False, err
			}
		}
	}
	return bdd.False, nil
}

// missesBox reports whether some address prefix list of st and some list of
// box permit no common route, so st shares no route with the stanza box
// came from. It is false when a list of st is undefined, leaving that
// error to StanzaPred.
func missesBox(cfg *ios.Config, st *ios.Stanza, box []*ios.PrefixList) bool {
	if len(box) == 0 {
		return false
	}
	own, ok := addressBox(cfg, st)
	if !ok {
		return false
	}
	for _, a := range own {
		for _, b := range box {
			if !permitsMeet(a, b) {
				return true
			}
		}
	}
	return false
}

// permitsMeet reports whether some route matches a permit entry of a and a
// permit entry of b: their length ranges meet, and their prefixes agree on
// the shorter one's bits. It is a test on the boxes only, so lists it says
// meet may still permit no common route.
func permitsMeet(a, b *ios.PrefixList) bool {
	for _, x := range a.Entries {
		if !x.Permit {
			continue
		}
		xlo, xhi := x.LenRange()
		for _, y := range b.Entries {
			ylo, yhi := y.LenRange()
			n := min(x.Prefix.Bits(), y.Prefix.Bits())
			diff := ios.AddrU32(x.Prefix.Addr()) ^ ios.AddrU32(y.Prefix.Addr())
			if y.Permit && max(xlo, ylo) <= min(xhi, yhi) && diff>>(32-n) == 0 {
				return true
			}
		}
	}
	return false
}

// PermitSet returns the BDD of input routes the route map permits.
func (s *RouteSpace) PermitSet(cfg *ios.Config, rm *ios.RouteMap) (bdd.Node, error) {
	regions, err := s.FirstMatch(cfg, rm)
	if err != nil {
		return bdd.False, err
	}
	return permitted(s.Pool, regions, func(i int) bool { return rm.Stanzas[i].Permit }), nil
}

// ---------- Concrete ↔ symbolic ----------

// EncodeRoute renders a concrete route as a total assignment vector suitable
// for bdd.Pool.Eval.
func (s *RouteSpace) EncodeRoute(r route.Route) []bool {
	v := make([]bool, s.Pool.NumVars())
	s.plen.Encode(v, uint64(r.Network.Bits()))
	s.addr.Encode(v, uint64(ios.AddrU32(r.Network.Addr())))
	s.lp.Encode(v, uint64(r.LocalPref))
	s.med.Encode(v, uint64(r.MED))
	s.tag.Encode(v, uint64(r.Tag))
	s.weight.Encode(v, uint64(r.Weight))
	nh := uint64(0)
	if r.NextHop.IsValid() {
		nh = uint64(ios.AddrU32(r.NextHop))
	}
	s.nh.Encode(v, nh)
	// A path in no atom (one holding a six-digit ASN) takes the reserved
	// index k, outside Valid.
	path := uint64(s.pathAtoms.NumAtoms())
	if ai := s.pathAtoms.Classify(ciscorx.PathSubject(r.FlatASPath())); ai >= 0 {
		path = s.pathIndex(ai)
	}
	s.path.Encode(v, path)
	for _, c := range r.Communities {
		if ai := s.commAtoms.Classify(ciscorx.CommunitySubject(c.String())); ai >= 0 {
			v[s.offCommAtoms+ai] = true
		}
	}
	return v
}

// Decode converts a satisfying cube into a concrete route. Unconstrained
// fields take Cisco-flavoured defaults (local preference 100, next hop
// 0.0.0.1), mirroring the defaults in the paper's examples.
func (s *RouteSpace) Decode(asg bdd.Cube) (route.Route, error) {
	plen := s.plen.Decode(asg)
	if plen > 32 {
		return route.Route{}, fmt.Errorf("symbolic: model has prefix length %d", plen)
	}
	addr := uint32(s.addr.Decode(asg))
	pfx := netip.PrefixFrom(ios.U32ToAddr(addr), int(plen)).Masked()

	r := route.Route{Network: pfx}
	if s.lp.Assigned(asg) {
		r.LocalPref = uint32(s.lp.Decode(asg))
	} else {
		r.LocalPref = 100
	}
	r.MED = uint32(s.med.Decode(asg))
	r.Tag = uint32(s.tag.Decode(asg))
	r.Weight = uint16(s.weight.Decode(asg))
	if s.nh.Assigned(asg) {
		r.NextHop = ios.U32ToAddr(uint32(s.nh.Decode(asg)))
	} else {
		r.NextHop = netip.MustParseAddr("0.0.0.1")
	}

	// AS path: the indexed atom's witness. With Valid conjoined the index
	// names an atom; one outside Valid decodes to the empty path.
	if i := s.pathAtoms.NumAtoms() - 1 - int(s.path.Decode(asg)); i >= 0 {
		asns, err := parsePathSubject(s.pathAtoms.Atoms[i].Witness)
		if err != nil {
			return route.Route{}, err
		}
		if len(asns) > 0 {
			r.ASPath = []route.ASPathSegment{{ASNs: asns}}
		}
	}

	// Communities: one witness per inhabited atom.
	for i := 0; i < s.commAtoms.NumAtoms(); i++ {
		if asg[s.offCommAtoms+i] == 1 {
			lit, ok := s.commAtoms.WitnessWhere(i, 16, func(w string) bool {
				_, err := parseCommunitySubject(w)
				return err == nil
			})
			if !ok {
				return route.Route{}, fmt.Errorf("symbolic: community atom %d has no decodable witness", i)
			}
			c, _ := parseCommunitySubject(lit)
			r = r.AddCommunity(c)
		}
	}
	return r, nil
}

func parsePathSubject(w string) ([]uint32, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(w, "^"), "$")
	if body == "" {
		return nil, nil
	}
	fields := strings.Fields(body)
	out := make([]uint32, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("symbolic: bad path witness %q: %v", w, err)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func parseCommunitySubject(w string) (route.Community, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(w, "^"), "$")
	return route.ParseCommunity(body)
}

// Witness returns a concrete route satisfying f (after conjoining the
// validity constraint); ok is false when f ∧ Valid is unsatisfiable.
func (s *RouteSpace) Witness(f bdd.Node) (route.Route, bool, error) {
	asg, ok := s.Pool.AnySat(s.Pool.And(f, s.Valid))
	if !ok {
		return route.Route{}, false, nil
	}
	r, err := s.Decode(asg)
	if err != nil {
		return route.Route{}, false, err
	}
	return r, true, nil
}

// WitnessWhere decodes the models of f ∧ Valid one at a time, in AllSat
// order, and reports whether accept takes one of the first limit. It stops
// at the first it takes. A model that does not decode is skipped but counts
// toward limit; the first decode error is returned only when no model is
// taken, so a region whose models all fail to decode still fails. An accept
// error is returned at once.
func (s *RouteSpace) WitnessWhere(f bdd.Node, limit int, accept func(route.Route) (bool, error)) (bool, error) {
	var (
		ok        bool
		err       error
		decodeErr error
		seen      int
	)
	s.Pool.AllSat(s.Pool.And(f, s.Valid), func(cube bdd.Cube) bool {
		seen++
		if r, derr := s.Decode(cube); derr != nil {
			if decodeErr == nil {
				decodeErr = derr
			}
		} else {
			ok, err = accept(r)
		}
		return !ok && err == nil && seen < limit
	})
	switch {
	case err != nil:
		return false, err
	case !ok && decodeErr != nil:
		return false, decodeErr
	}
	return ok, nil
}
