// Package policy implements the concrete first-match semantics of route maps
// and ACLs — the function M : Input → Rule of the paper's Section 4.
//
// The evaluator and the symbolic encoder (internal/symbolic) are two
// interpretations of the same clause semantics; a property test asserts they
// agree on random inputs.
package policy

import (
	"fmt"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
)

// ImplicitDeny is the rule index reported when no rule matches (the trailing
// implicit deny every route map and ACL carries).
const ImplicitDeny = -1

// RouteVerdict is the outcome of evaluating a route map on one route.
type RouteVerdict struct {
	// Index is the position (0-based) of the first matching stanza within
	// RouteMap.Stanzas, or ImplicitDeny.
	Index  int
	Permit bool
	// Output is the transformed route when Permit is true; otherwise it is
	// the input route unchanged.
	Output route.Route
}

// ACLVerdict is the outcome of evaluating an ACL on one packet.
type ACLVerdict struct {
	Index  int // 0-based ACE index or ImplicitDeny
	Permit bool
}

// Evaluator evaluates route maps and ACLs of one configuration, compiling
// regex automata through a ciscorx.Memo; an expanded community entry holding
// a literal (ciscorx.CommunityLiteral) is matched without one. Its only
// state is that table, which is safe for concurrent use, so one Evaluator
// may serve concurrent callers as long as nothing mutates the configuration.
type Evaluator struct {
	cfg      *ios.Config
	automata *ciscorx.Memo
}

// NewEvaluator returns an evaluator bound to cfg with a private automaton
// table. The configuration should be validated first; dangling references
// surface as errors during evaluation.
func NewEvaluator(cfg *ios.Config) *Evaluator {
	return NewEvaluatorWith(cfg, ciscorx.NewMemo())
}

// NewEvaluatorWith returns an evaluator bound to cfg that compiles through
// automata, typically a symbolic.RouteSpace's table (RouteSpace.Automata) so
// the evaluator reuses the automata the space already built. A nil table
// compiles on every lookup.
func NewEvaluatorWith(cfg *ios.Config, automata *ciscorx.Memo) *Evaluator {
	return &Evaluator{cfg: cfg, automata: automata}
}

// Config returns the configuration the evaluator is bound to.
func (e *Evaluator) Config() *ios.Config { return e.cfg }

// EvalRouteMap applies first-match semantics: the verdict of the leftmost
// matching stanza, with set clauses applied when it permits.
//
// `continue` clauses follow Cisco behaviour: a matching permit stanza with
// continue accumulates its set clauses and hands evaluation to the continue
// target (the next stanza, or the first stanza with sequence ≥ N for
// `continue N`); subsequent match clauses see the transformed route. A
// matching deny always terminates (continue on deny is ignored). Falling off
// the end after at least one matched permit permits the route with the
// accumulated transformations; matching nothing is the implicit deny.
func (e *Evaluator) EvalRouteMap(rm *ios.RouteMap, r route.Route) (RouteVerdict, error) {
	cur := r
	matchedPermit := false
	lastPermit := ImplicitDeny
	for i := 0; i < len(rm.Stanzas); {
		st := rm.Stanzas[i]
		ok, err := e.StanzaMatches(st, cur)
		if err != nil {
			return RouteVerdict{}, err
		}
		if !ok {
			i++
			continue
		}
		if !st.Permit {
			return RouteVerdict{Index: i, Permit: false, Output: r}, nil
		}
		cur = ApplySets(st.Sets, cur)
		matchedPermit = true
		lastPermit = i
		if st.Continue == nil {
			return RouteVerdict{Index: i, Permit: true, Output: cur}, nil
		}
		if st.Continue.Target == 0 {
			i++
			continue
		}
		next := len(rm.Stanzas)
		for j := i + 1; j < len(rm.Stanzas); j++ {
			if rm.Stanzas[j].Seq >= st.Continue.Target {
				next = j
				break
			}
		}
		i = next
	}
	if matchedPermit {
		return RouteVerdict{Index: lastPermit, Permit: true, Output: cur}, nil
	}
	return RouteVerdict{Index: ImplicitDeny, Permit: false, Output: r}, nil
}

// StanzaMatches reports whether every match clause of st holds for r
// (conjunction; a clause-free stanza matches everything).
func (e *Evaluator) StanzaMatches(st *ios.Stanza, r route.Route) (bool, error) {
	for _, m := range st.Matches {
		ok, err := e.MatchHolds(m, r)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// MatchHolds evaluates a single match clause.
func (e *Evaluator) MatchHolds(m ios.Match, r route.Route) (bool, error) {
	switch m := m.(type) {
	case ios.MatchASPath:
		l, ok := e.cfg.ASPathLists[m.List]
		if !ok {
			return false, fmt.Errorf("policy: undefined as-path list %q", m.List)
		}
		return e.asPathPermits(l, r)
	case ios.MatchPrefixList:
		l, ok := e.cfg.PrefixLists[m.List]
		if !ok {
			return false, fmt.Errorf("policy: undefined prefix-list %q", m.List)
		}
		return PrefixListPermits(l, r), nil
	case ios.MatchNextHop:
		l, ok := e.cfg.PrefixLists[m.List]
		if !ok {
			return false, fmt.Errorf("policy: undefined next-hop prefix-list %q", m.List)
		}
		return NextHopPermits(l, r), nil
	case ios.MatchCommunity:
		l, ok := e.cfg.CommunityLists[m.List]
		if !ok {
			return false, fmt.Errorf("policy: undefined community-list %q", m.List)
		}
		return e.communityPermits(l, r)
	case ios.MatchLocalPref:
		return r.LocalPref == m.Value, nil
	case ios.MatchMetric:
		return r.MED == m.Value, nil
	case ios.MatchTag:
		return r.Tag == m.Value, nil
	default:
		return false, fmt.Errorf("policy: unsupported match clause %T", m)
	}
}

// asPathPermits applies the list's first-match entry semantics: the first
// entry whose regex matches the path decides; default deny.
func (e *Evaluator) asPathPermits(l *ios.ASPathList, r route.Route) (bool, error) {
	subject := ciscorx.PathSubject(r.FlatASPath())
	for _, entry := range l.Entries {
		d, err := e.automata.Path(entry.Regex)
		if err != nil {
			return false, err
		}
		if d.Matches(subject) {
			return entry.Permit, nil
		}
	}
	return false, nil
}

// PrefixListPermits applies prefix-list first-match semantics over entries in
// sequence-number order; default deny.
func PrefixListPermits(l *ios.PrefixList, r route.Route) bool {
	for _, entry := range l.BySeq() {
		if PrefixEntryMatches(entry, r) {
			return entry.Permit
		}
	}
	return false
}

// PrefixEntryMatches reports whether one prefix-list entry covers the route's
// network: the entry's fixed bits agree and the route's length lies in the
// entry's resolved [ge,le] range.
func PrefixEntryMatches(entry ios.PrefixListEntry, r route.Route) bool {
	lo, hi := entry.LenRange()
	bits := r.Network.Bits()
	if bits < lo || bits > hi {
		return false
	}
	return entry.Prefix.Contains(r.Network.Addr())
}

// NextHopPermits applies prefix-list first-match semantics to the route's
// next-hop address, treated as a /32 host route (Cisco `match ip next-hop`).
func NextHopPermits(l *ios.PrefixList, r route.Route) bool {
	if !r.NextHop.IsValid() {
		return false
	}
	for _, entry := range l.BySeq() {
		lo, hi := entry.LenRange()
		if lo <= 32 && 32 <= hi && entry.Prefix.Contains(r.NextHop) {
			return entry.Permit
		}
	}
	return false
}

// communityPermits applies community-list first-match entry semantics.
// A standard entry matches when every listed community is present on the
// route; an expanded entry matches when some community on the route matches
// the regex.
func (e *Evaluator) communityPermits(l *ios.CommunityList, r route.Route) (bool, error) {
	for _, entry := range l.Entries {
		ok, err := e.communityEntryMatches(l, entry, r)
		if err != nil {
			return false, err
		}
		if ok {
			return entry.Permit, nil
		}
	}
	return false, nil
}

func (e *Evaluator) communityEntryMatches(l *ios.CommunityList, entry ios.CommunityListEntry, r route.Route) (bool, error) {
	if l.Expanded {
		// A literal's automaton accepts one well-formed subject, and a
		// route's communities render well-formed, so comparing is matching.
		if subject, ok := ciscorx.CommunityLiteral(entry.Values[0]); ok {
			lit := subject[1 : len(subject)-1]
			for _, c := range r.Communities {
				if c.String() == lit {
					return true, nil
				}
			}
			return false, nil
		}
		d, err := e.automata.Community(entry.Values[0])
		if err != nil {
			return false, err
		}
		for _, c := range r.Communities {
			if d.Matches(ciscorx.CommunitySubject(c.String())) {
				return true, nil
			}
		}
		return false, nil
	}
	for _, lit := range entry.Values {
		c, err := route.ParseCommunity(lit)
		if err != nil {
			return false, fmt.Errorf("policy: community-list %s: %v", l.Name, err)
		}
		if !r.HasCommunity(c) {
			return false, nil
		}
	}
	return true, nil
}

// ApplySets applies route-map set clauses in order to a copy of r.
func ApplySets(sets []ios.SetClause, r route.Route) route.Route {
	out := r.Clone()
	for _, s := range sets {
		switch s := s.(type) {
		case ios.SetMetric:
			out.MED = s.Value
		case ios.SetLocalPref:
			out.LocalPref = s.Value
		case ios.SetCommunity:
			if !s.Additive {
				out.Communities = nil
			}
			for _, lit := range s.Communities {
				out = out.AddCommunity(route.MustParseCommunity(lit))
			}
		case ios.SetNextHop:
			out.NextHop = s.Addr
		case ios.SetWeight:
			out.Weight = s.Value
		case ios.SetTag:
			out.Tag = s.Value
		}
	}
	return out
}

// EvalACL applies ACL first-match semantics; default deny.
func EvalACL(acl *ios.ACL, p packet.Packet) ACLVerdict {
	for i, ace := range acl.Entries {
		if ACEMatches(ace, p) {
			return ACLVerdict{Index: i, Permit: ace.Permit}
		}
	}
	return ACLVerdict{Index: ImplicitDeny, Permit: false}
}

// ACEMatches reports whether one access-control entry covers the packet.
func ACEMatches(ace *ios.ACE, p packet.Packet) bool {
	if !ace.Protocol.Matches(p.Protocol) {
		return false
	}
	if !ace.Src.Matches(p.Src) || !ace.Dst.Matches(p.Dst) {
		return false
	}
	if !ace.SrcPort.Matches(p.SrcPort) || !ace.DstPort.Matches(p.DstPort) {
		return false
	}
	if ace.Established && !p.Established {
		return false
	}
	if ace.ICMP != nil && !ace.ICMP.Matches(p.ICMPType, p.ICMPCode) {
		return false
	}
	return true
}
