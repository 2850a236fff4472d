// Package route models BGP route advertisements: the inputs over which route
// maps are evaluated, compared and disambiguated.
//
// The model mirrors the attribute set printed by the paper's differential
// examples (§2.2): network prefix, AS path (with confederation segments),
// communities, local preference, metric (MED), next hop, tag and weight.
package route

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Community is a standard BGP community attribute, rendered as "hi:lo".
type Community struct {
	Hi, Lo uint16
}

// String renders the community in the conventional colon form.
func (c Community) String() string { return fmt.Sprintf("%d:%d", c.Hi, c.Lo) }

// ParseCommunity parses "hi:lo" notation.
func ParseCommunity(s string) (Community, error) {
	hi, lo, ok := strings.Cut(s, ":")
	if !ok {
		return Community{}, fmt.Errorf("route: community %q is not in hi:lo form", s)
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil {
		return Community{}, fmt.Errorf("route: community %q: %v", s, err)
	}
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return Community{}, fmt.Errorf("route: community %q: %v", s, err)
	}
	return Community{Hi: uint16(h), Lo: uint16(l)}, nil
}

// MustParseCommunity is ParseCommunity for statically known strings.
func MustParseCommunity(s string) Community {
	c, err := ParseCommunity(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ASPathSegment is one segment of an AS path. Confederation segments are
// carried but treated as ordinary sequences by path matching, matching Cisco
// display semantics.
type ASPathSegment struct {
	ASNs          []uint32 `json:"asns"`
	Confederation bool     `json:"confederation"`
}

// Route is a BGP route advertisement.
type Route struct {
	Network     netip.Prefix
	ASPath      []ASPathSegment
	Communities []Community
	LocalPref   uint32
	MED         uint32
	NextHop     netip.Addr
	Tag         uint32
	Weight      uint16
}

// New returns a route for the given CIDR prefix with Cisco-default attribute
// values (local preference 100, everything else zero).
func New(cidr string) Route {
	p := netip.MustParsePrefix(cidr)
	return Route{
		Network:   p.Masked(),
		LocalPref: 100,
		NextHop:   netip.MustParseAddr("0.0.0.1"),
	}
}

// WithASPath returns a copy of r whose AS path is the single plain sequence
// given.
func (r Route) WithASPath(asns ...uint32) Route {
	r.ASPath = []ASPathSegment{{ASNs: append([]uint32(nil), asns...)}}
	return r
}

// WithCommunities returns a copy of r carrying exactly the given communities.
func (r Route) WithCommunities(comms ...string) Route {
	cs := make([]Community, len(comms))
	for i, s := range comms {
		cs[i] = MustParseCommunity(s)
	}
	r.Communities = cs
	return r
}

// FlatASPath returns the concatenated ASN sequence across segments.
func (r Route) FlatASPath() []uint32 {
	var out []uint32
	for _, seg := range r.ASPath {
		out = append(out, seg.ASNs...)
	}
	return out
}

// HasCommunity reports whether the route carries c.
func (r Route) HasCommunity(c Community) bool {
	for _, have := range r.Communities {
		if have == c {
			return true
		}
	}
	return false
}

// AddCommunity returns a copy of r carrying c (deduplicated, sorted order
// preserved by re-normalizing).
func (r Route) AddCommunity(c Community) Route {
	if r.HasCommunity(c) {
		return r
	}
	comms := append(append([]Community(nil), r.Communities...), c)
	sort.Slice(comms, func(i, j int) bool {
		if comms[i].Hi != comms[j].Hi {
			return comms[i].Hi < comms[j].Hi
		}
		return comms[i].Lo < comms[j].Lo
	})
	r.Communities = comms
	return r
}

// Clone returns a deep copy of r.
func (r Route) Clone() Route {
	out := r
	out.ASPath = make([]ASPathSegment, len(r.ASPath))
	for i, seg := range r.ASPath {
		out.ASPath[i] = ASPathSegment{
			ASNs:          append([]uint32(nil), seg.ASNs...),
			Confederation: seg.Confederation,
		}
	}
	out.Communities = append([]Community(nil), r.Communities...)
	return out
}

// Equal reports full attribute equality.
func (r Route) Equal(o Route) bool {
	if r.Network != o.Network || r.LocalPref != o.LocalPref || r.MED != o.MED ||
		r.NextHop != o.NextHop || r.Tag != o.Tag || r.Weight != o.Weight {
		return false
	}
	pa, pb := r.FlatASPath(), o.FlatASPath()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	if len(r.Communities) != len(o.Communities) {
		return false
	}
	for i := range r.Communities {
		if r.Communities[i] != o.Communities[i] {
			return false
		}
	}
	return true
}

// String renders the route in the multi-line format the paper's differential
// examples use.
func (r Route) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Network: %s\n", r.Network)
	path, _ := json.Marshal(r.ASPath)
	if r.ASPath == nil {
		path = []byte("[]")
	}
	fmt.Fprintf(&sb, "AS Path: %s\n", path)
	comms := make([]string, len(r.Communities))
	for i, c := range r.Communities {
		comms[i] = c.String()
	}
	cj, _ := json.Marshal(comms)
	fmt.Fprintf(&sb, "Communities: %s\n", cj)
	fmt.Fprintf(&sb, "Local Preference: %d\n", r.LocalPref)
	fmt.Fprintf(&sb, "Metric: %d\n", r.MED)
	fmt.Fprintf(&sb, "Next Hop IP: %s\n", r.NextHop)
	fmt.Fprintf(&sb, "Tag: %d\n", r.Tag)
	fmt.Fprintf(&sb, "Weight: %d", r.Weight)
	return sb.String()
}

// MarshalJSON renders the route with the paper's field names.
func (r Route) MarshalJSON() ([]byte, error) {
	comms := make([]string, len(r.Communities))
	for i, c := range r.Communities {
		comms[i] = c.String()
	}
	return json.Marshal(struct {
		Network     string          `json:"network"`
		ASPath      []ASPathSegment `json:"asPath"`
		Communities []string        `json:"communities"`
		LocalPref   uint32          `json:"localPreference"`
		Metric      uint32          `json:"metric"`
		NextHop     string          `json:"nextHopIp"`
		Tag         uint32          `json:"tag"`
		Weight      uint16          `json:"weight"`
	}{
		Network:     r.Network.String(),
		ASPath:      r.ASPath,
		Communities: comms,
		LocalPref:   r.LocalPref,
		Metric:      r.MED,
		NextHop:     r.NextHop.String(),
		Tag:         r.Tag,
		Weight:      r.Weight,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON, so routes survive a JSON
// round trip (the clarifyd wire format carries witness routes in
// disambiguation questions).
func (r *Route) UnmarshalJSON(data []byte) error {
	var in struct {
		Network     string          `json:"network"`
		ASPath      []ASPathSegment `json:"asPath"`
		Communities []string        `json:"communities"`
		LocalPref   uint32          `json:"localPreference"`
		Metric      uint32          `json:"metric"`
		NextHop     string          `json:"nextHopIp"`
		Tag         uint32          `json:"tag"`
		Weight      uint16          `json:"weight"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	network, err := netip.ParsePrefix(in.Network)
	if err != nil {
		return fmt.Errorf("route: network: %w", err)
	}
	nextHop, err := netip.ParseAddr(in.NextHop)
	if err != nil {
		return fmt.Errorf("route: next hop: %w", err)
	}
	comms := make([]Community, len(in.Communities))
	for i, s := range in.Communities {
		if comms[i], err = ParseCommunity(s); err != nil {
			return err
		}
	}
	if len(comms) == 0 {
		comms = nil
	}
	*r = Route{
		Network:     network,
		ASPath:      in.ASPath,
		Communities: comms,
		LocalPref:   in.LocalPref,
		MED:         in.Metric,
		NextHop:     nextHop,
		Tag:         in.Tag,
		Weight:      in.Weight,
	}
	return nil
}
