package analysis

import (
	"fmt"
	"net/netip"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/spec"
	"github.com/clarifynet/clarify/symbolic"
)

// RouteQuery is a declarative constraint over routes for one-call searches:
// the query compiles to a symbolic predicate internally, so callers never
// touch BDDs. Zero-valued fields are unconstrained.
type RouteQuery struct {
	// PrefixWithin restricts the route's network to lie under this CIDR,
	// with length in [PrefixLenMin, PrefixLenMax] (0,0 = any length ≥ the
	// CIDR's own, up to 32).
	PrefixWithin string
	PrefixLenMin int
	PrefixLenMax int
	// HasCommunity lists literal communities that must all be present.
	HasCommunity []string
	// CommunityRegex requires some community to match this Cisco regex.
	CommunityRegex string
	// ASPathRegex requires the AS path to match this Cisco regex.
	ASPathRegex string
	// Exact attribute values; nil = unconstrained.
	LocalPref *uint32
	Metric    *uint32
	Tag       *uint32
}

// toSpec renders the query as a behavioural spec, reusing its compiled
// stanza machinery.
func (q RouteQuery) toSpec() (*spec.RouteMapSpec, error) {
	s := &spec.RouteMapSpec{Permit: true}
	if q.PrefixWithin != "" {
		lo, hi := q.PrefixLenMin, q.PrefixLenMax
		pc, err := parseCIDRBits(q.PrefixWithin)
		if err != nil {
			return nil, err
		}
		if lo == 0 {
			lo = pc
		}
		if hi == 0 {
			hi = 32
		}
		s.Prefix = []string{fmt.Sprintf("%s:%d-%d", q.PrefixWithin, lo, hi)}
	}
	switch {
	case q.CommunityRegex != "" && len(q.HasCommunity) > 0:
		return nil, fmt.Errorf("analysis: query cannot combine CommunityRegex and HasCommunity")
	case q.CommunityRegex != "":
		s.Community = "/" + q.CommunityRegex + "/"
	case len(q.HasCommunity) == 1:
		s.Community = q.HasCommunity[0]
	case len(q.HasCommunity) > 1:
		return nil, fmt.Errorf("analysis: HasCommunity supports one literal per query (compose with multiple searches)")
	}
	if q.ASPathRegex != "" {
		s.ASPath = "/" + q.ASPathRegex + "/"
	}
	s.LocalPref = q.LocalPref
	s.Metric = q.Metric
	s.Tag = q.Tag
	return s, nil
}

func parseCIDRBits(cidr string) (int, error) {
	pfx, err := netip.ParsePrefix(cidr)
	if err != nil {
		return 0, fmt.Errorf("analysis: query prefix %q: %v", cidr, err)
	}
	return pfx.Bits(), nil
}

// SearchRouteMapMatching finds a route satisfying the query on which the
// route map's action equals wantPermit — the one-call form of Batfish's
// searchRoutePolicies. ok is false when no such route exists.
func SearchRouteMapMatching(cfg *ios.Config, rm *ios.RouteMap, q RouteQuery, wantPermit bool) (route.Route, bool, error) {
	qs, err := q.toSpec()
	if err != nil {
		return route.Route{}, false, err
	}
	qcfg, qrm, err := qs.ToConfig("QUERY")
	if err != nil {
		return route.Route{}, false, err
	}
	space, err := symbolic.NewRouteSpace(cfg, qcfg)
	if err != nil {
		return route.Route{}, false, err
	}
	pred, err := space.StanzaPred(qcfg, qrm.Stanzas[0])
	if err != nil {
		return route.Route{}, false, err
	}
	return SearchRouteMap(space, cfg, rm, pred, wantPermit)
}

// PacketQuery is the ACL counterpart of RouteQuery. Fields use the spec
// notation: addresses are "any", a host IP in /32 form, or a CIDR; ports use
// IOS phrases ("eq 80", "range 100 200").
type PacketQuery struct {
	Protocol    string
	Src, Dst    string
	SrcPort     string
	DstPort     string
	Established bool
}

// SearchACLMatching finds a packet satisfying the query on which the ACL's
// action equals wantPermit — the one-call form of Batfish's searchFilters.
func SearchACLMatching(acl *ios.ACL, q PacketQuery, wantPermit bool) (packet.Packet, bool, error) {
	qs := &spec.ACLSpec{
		Permit:      true,
		Protocol:    orDefault(q.Protocol, "ip"),
		Src:         orDefault(q.Src, "any"),
		Dst:         orDefault(q.Dst, "any"),
		SrcPort:     q.SrcPort,
		DstPort:     q.DstPort,
		Established: q.Established,
	}
	ace, err := qs.ToACE()
	if err != nil {
		return packet.Packet{}, false, err
	}
	space := symbolic.NewACLSpace()
	defer space.Release()
	pred := space.ACEPred(ace)
	pk, ok := SearchACL(space, acl, pred, wantPermit)
	return pk, ok, nil
}

func orDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}
