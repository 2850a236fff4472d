// Package ios models the subset of the Cisco IOS configuration language the
// paper manipulates: route-maps, ip prefix-lists, ip as-path access-lists,
// ip community-lists, and named/numbered extended access-lists.
//
// The package provides a line-oriented parser (parse.go), a canonical printer
// (print.go) whose output round-trips through the parser, and structural
// helpers used by the insertion machinery (renaming ancillary lists,
// renumbering stanzas, reference validation).
package ios

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// Config is a parsed configuration fragment: every named ancillary list plus
// the route-maps and ACLs that reference them.
type Config struct {
	ASPathLists    map[string]*ASPathList
	PrefixLists    map[string]*PrefixList
	CommunityLists map[string]*CommunityList
	RouteMaps      map[string]*RouteMap
	ACLs           map[string]*ACL

	// order preserves first-definition order for deterministic printing.
	order []ref
}

type refKind int

const (
	refASPath refKind = iota
	refPrefix
	refCommunity
	refRouteMap
	refACL
)

type ref struct {
	kind refKind
	name string
}

// NewConfig returns an empty configuration.
func NewConfig() *Config {
	return &Config{
		ASPathLists:    map[string]*ASPathList{},
		PrefixLists:    map[string]*PrefixList{},
		CommunityLists: map[string]*CommunityList{},
		RouteMaps:      map[string]*RouteMap{},
		ACLs:           map[string]*ACL{},
	}
}

// ---------- Ancillary lists ----------

// ASPathList is an `ip as-path access-list`: an ordered list of permit/deny
// regex entries; the first matching entry decides, default deny.
type ASPathList struct {
	Name    string
	Entries []ASPathEntry
}

// ASPathEntry is one regex line of an as-path list.
type ASPathEntry struct {
	Permit bool
	Regex  string
}

// PrefixList is an `ip prefix-list`: ordered permit/deny prefix entries with
// optional ge/le length bounds; first match decides, default deny.
type PrefixList struct {
	Name    string
	Entries []PrefixListEntry
}

// BySeq returns a copy of the entries in evaluation order: by sequence
// number, entries with equal numbers in list order.
func (l *PrefixList) BySeq() []PrefixListEntry {
	out := slices.Clone(l.Entries)
	slices.SortStableFunc(out, func(a, b PrefixListEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// PrefixListEntry is one line of a prefix list. Ge and Le are 0 when absent;
// Cisco semantics then require the route's length to equal the entry's
// prefix length exactly (when both absent) or fall in [Ge,32] / [len,Le].
type PrefixListEntry struct {
	Seq    int
	Permit bool
	Prefix netip.Prefix
	Ge, Le int
}

// LenRange resolves the effective [lo,hi] bounds on matched prefix length.
func (e PrefixListEntry) LenRange() (lo, hi int) {
	l := e.Prefix.Bits()
	switch {
	case e.Ge == 0 && e.Le == 0:
		return l, l
	case e.Ge == 0:
		return l, e.Le
	case e.Le == 0:
		return e.Ge, 32
	default:
		return e.Ge, e.Le
	}
}

// CommunityList is an `ip community-list`. Expanded lists hold regexes;
// standard lists hold literal communities (all of which must be present on
// the route for the entry to match).
type CommunityList struct {
	Name     string
	Expanded bool
	Entries  []CommunityListEntry
}

// CommunityListEntry is one line of a community list. For expanded lists
// Values holds a single regex; for standard lists it holds one or more
// literal communities.
type CommunityListEntry struct {
	Permit bool
	Values []string
}

// ---------- Route maps ----------

// RouteMap is an ordered list of stanzas evaluated first-match; routes that
// match no stanza are denied by the implicit trailing deny.
type RouteMap struct {
	Name    string
	Stanzas []*Stanza
}

// Stanza is one `route-map NAME permit|deny SEQ` block. All match clauses
// must hold for the stanza to match (conjunction); set clauses apply only on
// permit.
type Stanza struct {
	Seq     int
	Permit  bool
	Matches []Match
	Sets    []SetClause
	// Continue, when non-nil, makes a matching permit stanza accumulate its
	// set clauses and hand evaluation to the stanza with sequence number
	// Target (0 = the textually next stanza), per Cisco `continue [N]`.
	// Continue on a deny stanza is ignored, as on Cisco devices.
	Continue *ContinueClause
}

// ContinueClause is a route-map continue statement.
type ContinueClause struct {
	// Target is the sequence number to continue at; 0 means the next stanza.
	Target int
}

// Clone returns a deep copy of the stanza.
func (s *Stanza) Clone() *Stanza {
	out := &Stanza{Seq: s.Seq, Permit: s.Permit}
	out.Matches = append([]Match(nil), s.Matches...)
	out.Sets = append([]SetClause(nil), s.Sets...)
	if s.Continue != nil {
		c := *s.Continue
		out.Continue = &c
	}
	return out
}

// HasContinue reports whether any stanza of the route map uses continue;
// analyses whose semantics assume one-stanza-decides reject such maps, while
// the overlap analysis (which ignores actions, as §3 of the paper explains)
// accepts them.
func (rm *RouteMap) HasContinue() bool {
	for _, st := range rm.Stanzas {
		if st.Continue != nil {
			return true
		}
	}
	return false
}

// Match is a route-map match clause.
type Match interface {
	matchClause()
	String() string
}

// MatchASPath matches when the named as-path list permits the route's path.
type MatchASPath struct{ List string }

// MatchPrefixList matches when the named prefix list permits the route's
// network.
type MatchPrefixList struct{ List string }

// MatchCommunity matches when the named community list permits the route's
// community set.
type MatchCommunity struct{ List string }

// MatchNextHop matches when the named prefix list permits the route's
// next-hop address (treated as a /32, per Cisco `match ip next-hop
// prefix-list`).
type MatchNextHop struct{ List string }

// MatchLocalPref matches an exact local-preference value.
type MatchLocalPref struct{ Value uint32 }

// MatchMetric matches an exact MED value.
type MatchMetric struct{ Value uint32 }

// MatchTag matches an exact tag value.
type MatchTag struct{ Value uint32 }

func (MatchASPath) matchClause()     {}
func (MatchPrefixList) matchClause() {}
func (MatchNextHop) matchClause()    {}
func (MatchCommunity) matchClause()  {}
func (MatchLocalPref) matchClause()  {}
func (MatchMetric) matchClause()     {}
func (MatchTag) matchClause()        {}

func (m MatchASPath) String() string     { return "match as-path " + m.List }
func (m MatchPrefixList) String() string { return "match ip address prefix-list " + m.List }
func (m MatchNextHop) String() string    { return "match ip next-hop prefix-list " + m.List }
func (m MatchCommunity) String() string  { return "match community " + m.List }
func (m MatchLocalPref) String() string  { return fmt.Sprintf("match local-preference %d", m.Value) }
func (m MatchMetric) String() string     { return fmt.Sprintf("match metric %d", m.Value) }
func (m MatchTag) String() string        { return fmt.Sprintf("match tag %d", m.Value) }

// SetClause is a route-map set action.
type SetClause interface {
	setClause()
	String() string
}

// SetMetric sets the MED.
type SetMetric struct{ Value uint32 }

// SetLocalPref sets the local preference.
type SetLocalPref struct{ Value uint32 }

// SetCommunity sets (or, with Additive, appends) communities.
type SetCommunity struct {
	Communities []string
	Additive    bool
}

// SetNextHop sets the next-hop address.
type SetNextHop struct{ Addr netip.Addr }

// SetWeight sets the Cisco-local weight.
type SetWeight struct{ Value uint16 }

// SetTag sets the route tag.
type SetTag struct{ Value uint32 }

func (SetMetric) setClause()    {}
func (SetLocalPref) setClause() {}
func (SetCommunity) setClause() {}
func (SetNextHop) setClause()   {}
func (SetWeight) setClause()    {}
func (SetTag) setClause()       {}

func (s SetMetric) String() string    { return fmt.Sprintf("set metric %d", s.Value) }
func (s SetLocalPref) String() string { return fmt.Sprintf("set local-preference %d", s.Value) }
func (s SetCommunity) String() string {
	out := "set community"
	for _, c := range s.Communities {
		out += " " + c
	}
	if s.Additive {
		out += " additive"
	}
	return out
}
func (s SetNextHop) String() string { return "set ip next-hop " + s.Addr.String() }
func (s SetWeight) String() string  { return fmt.Sprintf("set weight %d", s.Value) }
func (s SetTag) String() string     { return fmt.Sprintf("set tag %d", s.Value) }

// ---------- Access lists ----------

// ACL is a named or numbered extended access list; first match decides,
// default deny.
type ACL struct {
	Name    string
	Entries []*ACE
}

// ACE is one access-control entry.
type ACE struct {
	Seq              int
	Permit           bool
	Protocol         ProtoSpec
	Src, Dst         AddrSpec
	SrcPort, DstPort PortSpec
	Established      bool
	// ICMP, when non-nil, constrains the ICMP type (and optionally code);
	// only valid with Protocol icmp.
	ICMP *ICMPSpec
}

// ICMPSpec matches the ICMP type and, when HasCode is set, the code.
type ICMPSpec struct {
	Type    uint8
	HasCode bool
	Code    uint8
}

// Matches reports whether the spec covers (typ, code).
func (is *ICMPSpec) Matches(typ, code uint8) bool {
	if is.Type != typ {
		return false
	}
	return !is.HasCode || is.Code == code
}

// Clone returns a deep copy of the entry.
func (a *ACE) Clone() *ACE {
	out := *a
	if a.ICMP != nil {
		ic := *a.ICMP
		out.ICMP = &ic
	}
	return &out
}

// ProtoSpec matches the IP protocol field. Any covers every protocol (the
// `ip` keyword).
type ProtoSpec struct {
	Any   bool
	Value uint8
}

// Matches reports whether the spec covers protocol p.
func (ps ProtoSpec) Matches(p uint8) bool { return ps.Any || ps.Value == p }

// AddrSpec matches an address with a Cisco wildcard mask: bits set in
// Wildcard are don't-cares. `host A` is Wildcard 0; `any` is Any true.
type AddrSpec struct {
	Any      bool
	Addr     netip.Addr
	Wildcard uint32
}

// Matches reports whether the spec covers address a.
func (as AddrSpec) Matches(a netip.Addr) bool {
	if as.Any {
		return true
	}
	want := addrToU32(as.Addr)
	got := addrToU32(a)
	return (want &^ as.Wildcard) == (got &^ as.Wildcard)
}

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U32ToAddr converts a 32-bit value to an IPv4 netip.Addr.
func U32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddrU32 exposes the numeric form of an address for the symbolic encoder.
func AddrU32(a netip.Addr) uint32 { return addrToU32(a) }

// PortOp is the comparison kind of a PortSpec.
type PortOp int

// Port comparison operators in IOS syntax order.
const (
	PortNone  PortOp = iota // no port constraint
	PortEq                  // eq N
	PortNeq                 // neq N
	PortLt                  // lt N
	PortGt                  // gt N
	PortRange               // range lo hi
)

// PortSpec matches a transport port.
type PortSpec struct {
	Op     PortOp
	Lo, Hi uint16 // Eq/Neq/Lt/Gt use Lo; Range uses both
}

// Matches reports whether the spec covers port p.
func (ps PortSpec) Matches(p uint16) bool {
	switch ps.Op {
	case PortNone:
		return true
	case PortEq:
		return p == ps.Lo
	case PortNeq:
		return p != ps.Lo
	case PortLt:
		return p < ps.Lo
	case PortGt:
		return p > ps.Lo
	case PortRange:
		return ps.Lo <= p && p <= ps.Hi
	}
	return false
}

// ---------- Config mutation helpers ----------

// AddASPathList registers (or extends) an as-path list.
func (c *Config) AddASPathList(name string, entries ...ASPathEntry) *ASPathList {
	l, ok := c.ASPathLists[name]
	if !ok {
		l = &ASPathList{Name: name}
		c.ASPathLists[name] = l
		c.order = append(c.order, ref{refASPath, name})
	}
	l.Entries = append(l.Entries, entries...)
	return l
}

// AddPrefixList registers (or extends) a prefix list.
func (c *Config) AddPrefixList(name string, entries ...PrefixListEntry) *PrefixList {
	l, ok := c.PrefixLists[name]
	if !ok {
		l = &PrefixList{Name: name}
		c.PrefixLists[name] = l
		c.order = append(c.order, ref{refPrefix, name})
	}
	l.Entries = append(l.Entries, entries...)
	return l
}

// AddCommunityList registers (or extends) a community list.
func (c *Config) AddCommunityList(name string, expanded bool, entries ...CommunityListEntry) *CommunityList {
	l, ok := c.CommunityLists[name]
	if !ok {
		l = &CommunityList{Name: name, Expanded: expanded}
		c.CommunityLists[name] = l
		c.order = append(c.order, ref{refCommunity, name})
	}
	l.Entries = append(l.Entries, entries...)
	return l
}

// AddRouteMap registers a route-map (or returns the existing one).
func (c *Config) AddRouteMap(name string) *RouteMap {
	rm, ok := c.RouteMaps[name]
	if !ok {
		rm = &RouteMap{Name: name}
		c.RouteMaps[name] = rm
		c.order = append(c.order, ref{refRouteMap, name})
	}
	return rm
}

// AddACL registers an ACL (or returns the existing one).
func (c *Config) AddACL(name string) *ACL {
	a, ok := c.ACLs[name]
	if !ok {
		a = &ACL{Name: name}
		c.ACLs[name] = a
		c.order = append(c.order, ref{refACL, name})
	}
	return a
}

// Merge copies every definition of other into c. Name collisions are an
// error; use RenameLists on the snippet first.
func (c *Config) Merge(other *Config) error {
	for _, r := range other.order {
		switch r.kind {
		case refASPath:
			if _, dup := c.ASPathLists[r.name]; dup {
				return fmt.Errorf("ios: duplicate as-path list %q", r.name)
			}
			c.AddASPathList(r.name, other.ASPathLists[r.name].Entries...)
		case refPrefix:
			if _, dup := c.PrefixLists[r.name]; dup {
				return fmt.Errorf("ios: duplicate prefix-list %q", r.name)
			}
			c.AddPrefixList(r.name, other.PrefixLists[r.name].Entries...)
		case refCommunity:
			if _, dup := c.CommunityLists[r.name]; dup {
				return fmt.Errorf("ios: duplicate community-list %q", r.name)
			}
			src := other.CommunityLists[r.name]
			c.AddCommunityList(r.name, src.Expanded, src.Entries...)
		case refRouteMap:
			if _, dup := c.RouteMaps[r.name]; dup {
				return fmt.Errorf("ios: duplicate route-map %q", r.name)
			}
			dst := c.AddRouteMap(r.name)
			for _, st := range other.RouteMaps[r.name].Stanzas {
				dst.Stanzas = append(dst.Stanzas, st.Clone())
			}
		case refACL:
			if _, dup := c.ACLs[r.name]; dup {
				return fmt.Errorf("ios: duplicate ACL %q", r.name)
			}
			dst := c.AddACL(r.name)
			for _, e := range other.ACLs[r.name].Entries {
				dst.Entries = append(dst.Entries, e.Clone())
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	out := NewConfig()
	if err := out.Merge(c); err != nil {
		panic("ios: clone cannot collide: " + err.Error())
	}
	return out
}

// Validate checks that every list referenced by a route-map is defined.
func (c *Config) Validate() error {
	for _, rm := range c.RouteMaps {
		for _, st := range rm.Stanzas {
			for _, m := range st.Matches {
				switch m := m.(type) {
				case MatchASPath:
					if _, ok := c.ASPathLists[m.List]; !ok {
						return fmt.Errorf("ios: route-map %s references undefined as-path list %q", rm.Name, m.List)
					}
				case MatchPrefixList:
					if _, ok := c.PrefixLists[m.List]; !ok {
						return fmt.Errorf("ios: route-map %s references undefined prefix-list %q", rm.Name, m.List)
					}
				case MatchNextHop:
					if _, ok := c.PrefixLists[m.List]; !ok {
						return fmt.Errorf("ios: route-map %s references undefined next-hop prefix-list %q", rm.Name, m.List)
					}
				case MatchCommunity:
					if _, ok := c.CommunityLists[m.List]; !ok {
						return fmt.Errorf("ios: route-map %s references undefined community-list %q", rm.Name, m.List)
					}
				}
			}
		}
	}
	return nil
}

// FreshName returns base if unused, otherwise base2, base3, ... The check
// spans every namespace so renamed snippet lists can never capture.
func (c *Config) FreshName(base string) string {
	used := func(n string) bool {
		_, a := c.ASPathLists[n]
		_, b := c.PrefixLists[n]
		_, d := c.CommunityLists[n]
		_, e := c.RouteMaps[n]
		_, f := c.ACLs[n]
		return a || b || d || e || f
	}
	if !used(base) {
		return base
	}
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s%d", base, i)
		if !used(n) {
			return n
		}
	}
}

// RenameList renames an ancillary list and rewrites every route-map
// reference to it. Missing names are a no-op for robustness during insertion.
func (c *Config) RenameList(old, new string) {
	if old == new {
		return
	}
	if l, ok := c.ASPathLists[old]; ok {
		delete(c.ASPathLists, old)
		l.Name = new
		c.ASPathLists[new] = l
		c.renameRef(refASPath, old, new)
	}
	if l, ok := c.PrefixLists[old]; ok {
		delete(c.PrefixLists, old)
		l.Name = new
		c.PrefixLists[new] = l
		c.renameRef(refPrefix, old, new)
	}
	if l, ok := c.CommunityLists[old]; ok {
		delete(c.CommunityLists, old)
		l.Name = new
		c.CommunityLists[new] = l
		c.renameRef(refCommunity, old, new)
	}
	for _, rm := range c.RouteMaps {
		for _, st := range rm.Stanzas {
			for i, m := range st.Matches {
				switch m := m.(type) {
				case MatchASPath:
					if m.List == old {
						st.Matches[i] = MatchASPath{List: new}
					}
				case MatchPrefixList:
					if m.List == old {
						st.Matches[i] = MatchPrefixList{List: new}
					}
				case MatchNextHop:
					if m.List == old {
						st.Matches[i] = MatchNextHop{List: new}
					}
				case MatchCommunity:
					if m.List == old {
						st.Matches[i] = MatchCommunity{List: new}
					}
				}
			}
		}
	}
}

func (c *Config) renameRef(kind refKind, old, new string) {
	for i, r := range c.order {
		if r.kind == kind && r.name == old {
			c.order[i].name = new
			return
		}
	}
}

// RemoveRouteMap deletes a route-map definition (no-op when absent).
func (c *Config) RemoveRouteMap(name string) {
	if _, ok := c.RouteMaps[name]; !ok {
		return
	}
	delete(c.RouteMaps, name)
	for i, r := range c.order {
		if r.kind == refRouteMap && r.name == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// ListNames returns every ancillary list name defined in c, sorted.
func (c *Config) ListNames() []string {
	var out []string
	for n := range c.ASPathLists {
		out = append(out, n)
	}
	for n := range c.PrefixLists {
		out = append(out, n)
	}
	for n := range c.CommunityLists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Renumber rewrites stanza sequence numbers as 10, 20, 30, ...
func (rm *RouteMap) Renumber() {
	for i, st := range rm.Stanzas {
		st.Seq = (i + 1) * 10
	}
}

// InsertStanza inserts st at index pos (0 = top) and renumbers.
func (rm *RouteMap) InsertStanza(pos int, st *Stanza) {
	if pos < 0 || pos > len(rm.Stanzas) {
		panic(fmt.Sprintf("ios: insert position %d out of range [0,%d]", pos, len(rm.Stanzas)))
	}
	rm.Stanzas = append(rm.Stanzas, nil)
	copy(rm.Stanzas[pos+1:], rm.Stanzas[pos:])
	rm.Stanzas[pos] = st
	rm.Renumber()
}

// Renumber rewrites ACE sequence numbers as 10, 20, 30, ...
func (a *ACL) Renumber() {
	for i, e := range a.Entries {
		e.Seq = (i + 1) * 10
	}
}

// InsertEntry inserts e at index pos (0 = top) and renumbers.
func (a *ACL) InsertEntry(pos int, e *ACE) {
	if pos < 0 || pos > len(a.Entries) {
		panic(fmt.Sprintf("ios: insert position %d out of range [0,%d]", pos, len(a.Entries)))
	}
	a.Entries = append(a.Entries, nil)
	copy(a.Entries[pos+1:], a.Entries[pos:])
	a.Entries[pos] = e
	a.Renumber()
}
