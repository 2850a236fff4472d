// Package spec models the JSON behavioural specifications of §2.1 — the
// intermediate artifact the user eyeballs to confirm the LLM understood the
// intent — and verifies synthesized snippets against them using the symbolic
// engine (the role Batfish's searchRoutePolicies/searchFilters play in the
// paper).
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/symbolic"
)

// RouteMapSpec is the behavioural specification of a single route-map stanza.
// The JSON shape follows the paper: {"permit": true, "prefix":
// ["100.0.0.0/16:16-23"], "community": "/_300:3_/", "set": {"metric": 55}}.
type RouteMapSpec struct {
	Permit bool `json:"permit"`
	// Prefix entries use "A.B.C.D/L:lo-hi" notation: the route's network
	// falls under A.B.C.D/L with prefix length in [lo,hi]. Multiple entries
	// are alternatives.
	Prefix []string `json:"prefix,omitempty"`
	// Community is a Cisco regex between slashes ("/_300:3_/") or a literal
	// community ("300:3") some community on the route must match.
	Community string `json:"community,omitempty"`
	// ASPath is a Cisco as-path regex between slashes.
	ASPath string `json:"asPath,omitempty"`
	// Exact-value matches; nil means unconstrained.
	LocalPref *uint32 `json:"localPreference,omitempty"`
	Metric    *uint32 `json:"metric,omitempty"`
	Tag       *uint32 `json:"tag,omitempty"`

	Set SetSpec `json:"set,omitempty"`
}

// SetSpec is the transformation half of a route-map spec.
type SetSpec struct {
	Metric      *uint32  `json:"metric,omitempty"`
	LocalPref   *uint32  `json:"localPreference,omitempty"`
	Weight      *uint16  `json:"weight,omitempty"`
	Tag         *uint32  `json:"tag,omitempty"`
	Communities []string `json:"community,omitempty"`
	Additive    bool     `json:"additive,omitempty"`
	NextHop     string   `json:"nextHopIp,omitempty"`
}

// IsZero reports whether no transformation is specified.
func (s SetSpec) IsZero() bool {
	return s.Metric == nil && s.LocalPref == nil && s.Weight == nil &&
		s.Tag == nil && len(s.Communities) == 0 && s.NextHop == ""
}

// ParseRouteMapSpec decodes the JSON form.
func ParseRouteMapSpec(data []byte) (*RouteMapSpec, error) {
	var s RouteMapSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// JSON renders the spec in the paper's JSON shape.
func (s *RouteMapSpec) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // spec structs are always marshalable
	}
	return string(b)
}

// prefixConstraint is one parsed "A.B.C.D/L:lo-hi" item.
type prefixConstraint struct {
	prefix netip.Prefix
	lo, hi int
}

func parsePrefixConstraint(s string) (prefixConstraint, error) {
	body, rng, hasRange := strings.Cut(s, ":")
	pfx, err := netip.ParsePrefix(body)
	if err != nil {
		return prefixConstraint{}, fmt.Errorf("spec: prefix %q: %v", s, err)
	}
	pc := prefixConstraint{prefix: pfx.Masked(), lo: pfx.Bits(), hi: pfx.Bits()}
	if hasRange {
		loS, hiS, ok := strings.Cut(rng, "-")
		if !ok {
			return prefixConstraint{}, fmt.Errorf("spec: prefix range %q is not lo-hi", s)
		}
		lo, err1 := strconv.Atoi(loS)
		hi, err2 := strconv.Atoi(hiS)
		if err1 != nil || err2 != nil || lo < 0 || hi > 32 || lo > hi || lo < pfx.Bits() {
			return prefixConstraint{}, fmt.Errorf("spec: bad prefix range %q", s)
		}
		pc.lo, pc.hi = lo, hi
	}
	return pc, nil
}

// regexBody strips the /.../ wrapper; a bare literal is returned unchanged
// with exact=true.
func regexBody(s string) (body string, exact bool) {
	if len(s) >= 2 && strings.HasPrefix(s, "/") && strings.HasSuffix(s, "/") {
		return s[1 : len(s)-1], false
	}
	return s, true
}

// ToConfig renders the spec's matchers and transforms as a throwaway IOS
// fragment (an "expected stanza"). Passing this config to
// symbolic.NewRouteSpace alongside the candidate snippet guarantees the
// universe covers the spec's regexes; the expected stanza is also what the
// verifier compares outputs against. List and map names are prefixed to
// avoid collisions.
func (s *RouteMapSpec) ToConfig(prefix string) (*ios.Config, *ios.RouteMap, error) {
	cfg := ios.NewConfig()
	st := &ios.Stanza{Seq: 10, Permit: s.Permit}
	if len(s.Prefix) > 0 {
		name := prefix + "_PFX"
		var entries []ios.PrefixListEntry
		for i, p := range s.Prefix {
			pc, err := parsePrefixConstraint(p)
			if err != nil {
				return nil, nil, err
			}
			e := ios.PrefixListEntry{Seq: (i + 1) * 10, Permit: true, Prefix: pc.prefix}
			if pc.lo != pc.prefix.Bits() || pc.hi != pc.prefix.Bits() {
				e.Ge, e.Le = pc.lo, pc.hi
			}
			entries = append(entries, e)
		}
		cfg.AddPrefixList(name, entries...)
		st.Matches = append(st.Matches, ios.MatchPrefixList{List: name})
	}
	if s.Community != "" {
		name := prefix + "_COMM"
		body, exact := regexBody(s.Community)
		if exact {
			cfg.AddCommunityList(name, false, ios.CommunityListEntry{Permit: true, Values: []string{body}})
		} else {
			cfg.AddCommunityList(name, true, ios.CommunityListEntry{Permit: true, Values: []string{body}})
		}
		st.Matches = append(st.Matches, ios.MatchCommunity{List: name})
	}
	if s.ASPath != "" {
		name := prefix + "_ASP"
		body, _ := regexBody(s.ASPath)
		cfg.AddASPathList(name, ios.ASPathEntry{Permit: true, Regex: body})
		st.Matches = append(st.Matches, ios.MatchASPath{List: name})
	}
	if s.LocalPref != nil {
		st.Matches = append(st.Matches, ios.MatchLocalPref{Value: *s.LocalPref})
	}
	if s.Metric != nil {
		st.Matches = append(st.Matches, ios.MatchMetric{Value: *s.Metric})
	}
	if s.Tag != nil {
		st.Matches = append(st.Matches, ios.MatchTag{Value: *s.Tag})
	}
	if s.Permit {
		st.Sets = s.Set.clauses()
	}
	rm := cfg.AddRouteMap(prefix + "_MAP")
	rm.Stanzas = append(rm.Stanzas, st)
	return cfg, rm, nil
}

// verifyPrefix prefixes the names route-map verification renders a spec
// under.
const verifyPrefix = "SPEC"

// VerificationConfig is s rendered as route-map verification renders it:
// the config whose patterns a verification space covers.
func (s *RouteMapSpec) VerificationConfig() (*ios.Config, error) {
	cfg, _, err := s.ToConfig(verifyPrefix)
	return cfg, err
}

func (s SetSpec) clauses() []ios.SetClause {
	var out []ios.SetClause
	if s.Metric != nil {
		out = append(out, ios.SetMetric{Value: *s.Metric})
	}
	if s.LocalPref != nil {
		out = append(out, ios.SetLocalPref{Value: *s.LocalPref})
	}
	if len(s.Communities) > 0 {
		out = append(out, ios.SetCommunity{Communities: s.Communities, Additive: s.Additive})
	}
	if s.Weight != nil {
		out = append(out, ios.SetWeight{Value: *s.Weight})
	}
	if s.Tag != nil {
		out = append(out, ios.SetTag{Value: *s.Tag})
	}
	if s.NextHop != "" {
		out = append(out, ios.SetNextHop{Addr: netip.MustParseAddr(s.NextHop)})
	}
	return out
}

// Violation is one way a snippet can fail its spec, with a witness.
type Violation struct {
	Kind    ViolationKind
	Details string
}

// ViolationKind enumerates spec-violation categories.
type ViolationKind int

// Violation categories reported by VerifyRouteMapSnippet.
const (
	// MissedInput: a route the spec covers is not matched by the stanza.
	MissedInput ViolationKind = iota
	// ExtraInput: a route outside the spec is matched by the stanza.
	ExtraInput
	// WrongAction: the stanza matches but permits/denies incorrectly or
	// transforms attributes differently from the spec.
	WrongAction
)

func (k ViolationKind) String() string {
	switch k {
	case MissedInput:
		return "missed-input"
	case ExtraInput:
		return "extra-input"
	case WrongAction:
		return "wrong-action"
	default:
		return "unknown"
	}
}

// VerifyRouteMapSnippet checks a one-stanza snippet against the spec:
//
//  1. every route in the spec's input region is matched by the stanza and
//     receives the spec's action/transforms (completeness);
//  2. no route outside the spec's input region matches the stanza
//     (soundness).
//
// Returns nil when the snippet is behaviourally exactly the spec.
func VerifyRouteMapSnippet(snippet *ios.Config, mapName string, s *RouteMapSpec) ([]Violation, error) {
	return VerifyRouteMapSnippetTraced(nil, snippet, mapName, s, nil)
}

// VerifyRouteMapSnippetCached is VerifyRouteMapSnippet drawing its symbolic
// universe from cache (which may be nil). Repeated verifications whose
// snippet + spec regexes are unchanged hit the cache and skip universe
// construction entirely.
func VerifyRouteMapSnippetCached(cache *symbolic.SpaceCache, snippet *ios.Config, mapName string, s *RouteMapSpec) ([]Violation, error) {
	return VerifyRouteMapSnippetTraced(cache, snippet, mapName, s, nil)
}

// VerifyRouteMapSnippetTraced is VerifyRouteMapSnippetCached annotating sp
// (which may be nil) with the BDD workload the verification performed.
func VerifyRouteMapSnippetTraced(cache *symbolic.SpaceCache, snippet *ios.Config, mapName string, s *RouteMapSpec, sp *obs.Span) ([]Violation, error) {
	var space *symbolic.RouteSpace
	// Runs after the verification has annotated sp: once the space is filed
	// back, a concurrent acquirer may advance its counters.
	defer func() { cache.Release(space) }()
	return VerifyRouteMapSnippetIn(func(specCfg *ios.Config) (*symbolic.RouteSpace, error) {
		var err error
		space, err = cache.Acquire(snippet, specCfg)
		return space, err
	}, snippet, mapName, s, sp)
}

// VerifyRouteMapSnippetIn is VerifyRouteMapSnippetTraced working in the
// space acquire checks out for specCfg, the spec rendered as a throwaway
// config (ToConfig). The space must cover the patterns of snippet and
// specCfg; the caller keeps it and releases it. Figure 1's loop passes a
// space that also holds the configuration the snippet will be inserted
// into, so verification and disambiguation share one universe.
func VerifyRouteMapSnippetIn(acquire func(specCfg *ios.Config) (*symbolic.RouteSpace, error), snippet *ios.Config, mapName string, s *RouteMapSpec, sp *obs.Span) ([]Violation, error) {
	rm, ok := snippet.RouteMaps[mapName]
	if !ok {
		return nil, fmt.Errorf("spec: snippet lacks route-map %q", mapName)
	}
	if len(rm.Stanzas) != 1 {
		return []Violation{{Kind: WrongAction, Details: fmt.Sprintf("snippet has %d stanzas, want exactly 1", len(rm.Stanzas))}}, nil
	}
	specCfg, specRM, err := s.ToConfig(verifyPrefix)
	if err != nil {
		return nil, err
	}
	space, err := acquire(specCfg)
	if err != nil {
		return nil, err
	}
	defer space.ObserveInto(sp, space.Pool.Counters())
	p := space.Pool
	actualSt := rm.Stanzas[0]
	expectSt := specRM.Stanzas[0]
	actualPred, err := space.StanzaPred(snippet, actualSt)
	if err != nil {
		return nil, err
	}
	specPred, err := space.StanzaPred(specCfg, expectSt)
	if err != nil {
		return nil, err
	}

	var out []Violation
	// Completeness: spec region not matched.
	if w, ok, err := space.Witness(p.Diff(specPred, actualPred)); err != nil {
		return nil, err
	} else if ok {
		out = append(out, Violation{Kind: MissedInput,
			Details: fmt.Sprintf("route %s (communities %v) should be handled but is not matched", w.Network, w.Communities)})
	}
	// Soundness: stanza matches outside the spec region.
	if w, ok, err := space.Witness(p.Diff(actualPred, specPred)); err != nil {
		return nil, err
	} else if ok {
		out = append(out, Violation{Kind: ExtraInput,
			Details: fmt.Sprintf("route %s (communities %v) is matched but outside the specified behaviour", w.Network, w.Communities)})
	}
	// Action/transform agreement on the common region.
	if actualSt.Permit != s.Permit {
		out = append(out, Violation{Kind: WrongAction,
			Details: fmt.Sprintf("stanza action %v, spec wants %v", actualSt.Permit, s.Permit)})
		return out, nil
	}
	outEq, err := space.OutputEqual(actualSt, expectSt)
	if err != nil {
		return nil, err
	}
	if w, ok, err := space.Witness(p.Diff(p.And(specPred, actualPred), outEq)); err != nil {
		return nil, err
	} else if ok {
		out = append(out, Violation{Kind: WrongAction,
			Details: fmt.Sprintf("route %s receives a different transformation than specified", w.Network)})
	}
	return out, nil
}

// ---------- ACL specs ----------

// ACLSpec is the behavioural specification of a single ACL entry.
type ACLSpec struct {
	Permit      bool   `json:"permit"`
	Protocol    string `json:"protocol"` // "ip", "tcp", "udp", "icmp" or a number
	Src         string `json:"src"`      // "any", "A.B.C.D" (host), or CIDR
	Dst         string `json:"dst"`
	SrcPort     string `json:"srcPort,omitempty"` // "eq N" | "range A B" | "lt N" | "gt N" | "neq N"
	DstPort     string `json:"dstPort,omitempty"`
	Established bool   `json:"established,omitempty"`
	// ICMP is an icmp-type phrase ("echo", "unreachable 1"); only with
	// protocol icmp.
	ICMP string `json:"icmp,omitempty"`
}

// ParseACLSpec decodes the JSON form.
func ParseACLSpec(data []byte) (*ACLSpec, error) {
	var s ACLSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// JSON renders the spec.
func (s *ACLSpec) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// ToACE renders the spec as the expected access-control entry.
func (s *ACLSpec) ToACE() (*ios.ACE, error) {
	line := actionWord(s.Permit) + " " + s.Protocol + " " + addrWords(s.Src)
	if s.SrcPort != "" {
		line += " " + s.SrcPort
	}
	line += " " + addrWords(s.Dst)
	if s.DstPort != "" {
		line += " " + s.DstPort
	}
	if s.ICMP != "" {
		line += " " + s.ICMP
	}
	if s.Established {
		line += " established"
	}
	// Errors number the entry line 2, under an "ip access-list extended
	// SPEC" header, as the error texts journals recorded do.
	ace, err := ios.ParseACE(2, line)
	if err != nil {
		return nil, fmt.Errorf("spec: cannot render ACE: %w", err)
	}
	return ace, nil
}

func actionWord(permit bool) string {
	if permit {
		return "permit"
	}
	return "deny"
}

// addrWords renders a spec address in IOS syntax: any, host, or
// prefix+wildcard.
func addrWords(s string) string {
	if s == "any" || s == "" {
		return "any"
	}
	if pfx, err := netip.ParsePrefix(s); err == nil {
		switch pfx.Bits() {
		case 32:
			return "host " + pfx.Addr().String()
		case 0:
			return "any"
		}
		wild := uint32(0xFFFFFFFF) >> uint(pfx.Bits())
		return pfx.Masked().Addr().String() + " " + ios.U32ToAddr(wild).String()
	}
	return "host " + s
}

// VerifyACLSnippet checks a one-entry ACL snippet against the spec, using the
// same completeness/soundness decomposition as route maps. Transformations do
// not exist for ACLs, so only the match region and action are compared.
func VerifyACLSnippet(snippet *ios.Config, aclName string, s *ACLSpec) ([]Violation, error) {
	return VerifyACLSnippetTraced(nil, snippet, aclName, s, nil)
}

// VerifyACLSnippetTraced is VerifyACLSnippet working in space (nil builds
// one, released before returning) and annotating sp (which may be nil) with
// the BDD workload the verification performed.
func VerifyACLSnippetTraced(space *symbolic.ACLSpace, snippet *ios.Config, aclName string, s *ACLSpec, sp *obs.Span) ([]Violation, error) {
	acl, ok := snippet.ACLs[aclName]
	if !ok {
		return nil, fmt.Errorf("spec: snippet lacks ACL %q", aclName)
	}
	if len(acl.Entries) != 1 {
		return []Violation{{Kind: WrongAction, Details: fmt.Sprintf("snippet has %d entries, want exactly 1", len(acl.Entries))}}, nil
	}
	expected, err := s.ToACE()
	if err != nil {
		return nil, err
	}
	if space == nil {
		space = symbolic.NewACLSpace()
		defer space.Release()
	}
	defer space.ObserveInto(sp, space.Pool.Counters())
	actual := space.ACEPred(acl.Entries[0])
	want := space.ACEPred(expected)
	var out []Violation
	if pk, ok := space.Witness(space.Pool.Diff(want, actual)); ok {
		out = append(out, Violation{Kind: MissedInput,
			Details: fmt.Sprintf("packet %s should be covered but is not", pk)})
	}
	if pk, ok := space.Witness(space.Pool.Diff(actual, want)); ok {
		out = append(out, Violation{Kind: ExtraInput,
			Details: fmt.Sprintf("packet %s is covered but outside the specified behaviour", pk)})
	}
	if acl.Entries[0].Permit != s.Permit {
		out = append(out, Violation{Kind: WrongAction,
			Details: fmt.Sprintf("entry action %v, spec wants %v", acl.Entries[0].Permit, s.Permit)})
	}
	return out, nil
}

// U32ptr is a small helper for building specs in code.
func U32ptr(v uint32) *uint32 { return &v }
