// Package testgen provides seeded random generators for routes, packets and
// configurations, shared by the property-based tests that assert the
// concrete evaluator and the symbolic encoder agree.
package testgen

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
)

// Pools of attribute values chosen to collide with the patterns the random
// configs use, so random routes regularly hit every code path.
var (
	asns        = []uint32{32, 100, 200, 300, 65000, 7}
	communities = []string{"300:3", "100:1", "100:2", "9:9", "65000:100"}
	prefixCIDRs = []string{
		"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "20.0.0.0/16",
		"1.0.0.0/20", "1.0.1.0/24", "100.0.0.0/16", "100.0.0.0/20",
		"192.168.0.0/16", "0.0.0.0/0",
	}
	localPrefs = []uint32{100, 200, 300}
	meds       = []uint32{0, 55, 100}
)

// Route draws a random route biased toward the shared attribute pools.
func Route(rng *rand.Rand) route.Route {
	r := route.New(prefixCIDRs[rng.Intn(len(prefixCIDRs))])
	n := rng.Intn(4)
	path := make([]uint32, n)
	for i := range path {
		path[i] = asns[rng.Intn(len(asns))]
	}
	if n > 0 {
		r = r.WithASPath(path...)
	}
	var comms []string
	for _, c := range communities {
		if rng.Intn(3) == 0 {
			comms = append(comms, c)
		}
	}
	if len(comms) > 0 {
		r = r.WithCommunities(comms...)
	}
	r.LocalPref = localPrefs[rng.Intn(len(localPrefs))]
	r.MED = meds[rng.Intn(len(meds))]
	r.Tag = uint32(rng.Intn(4))
	r.Weight = uint16(rng.Intn(3) * 10)
	r.NextHop = netip.MustParseAddr([]string{"0.0.0.1", "10.0.0.9", "192.0.2.1", "10.1.2.3"}[rng.Intn(4)])
	return r
}

// Packet draws a random packet biased toward small address/port pools so ACL
// entries overlap frequently.
func Packet(rng *rand.Rand) packet.Packet {
	addrPool := []string{"1.1.1.1", "2.2.2.2", "10.0.0.5", "10.0.1.5", "192.168.1.1", "8.8.8.8"}
	protoPool := []uint8{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
	portPool := []uint16{0, 22, 80, 179, 443, 1024, 5050, 65535}
	p := packet.Packet{
		Src:      netip.MustParseAddr(addrPool[rng.Intn(len(addrPool))]),
		Dst:      netip.MustParseAddr(addrPool[rng.Intn(len(addrPool))]),
		Protocol: protoPool[rng.Intn(len(protoPool))],
	}
	if p.Protocol != packet.ProtoICMP {
		p.SrcPort = portPool[rng.Intn(len(portPool))]
		p.DstPort = portPool[rng.Intn(len(portPool))]
		p.Established = p.Protocol == packet.ProtoTCP && rng.Intn(2) == 0
	} else {
		p.ICMPType = []uint8{0, 3, 8, 11}[rng.Intn(4)]
		p.ICMPCode = uint8(rng.Intn(2))
	}
	return p
}

// Config builds a random configuration with nLists ancillary lists and one
// route-map of nStanzas stanzas referencing them.
func Config(rng *rand.Rand, mapName string, nStanzas int) *ios.Config {
	cfg := ios.NewConfig()
	pathRegexes := []string{"_32$", "_100_", "^65000_", "_7_", "^$"}
	commRegexes := []string{"_300:3_", "^100:[0-9]+$", "_9:9_"}

	// A few ancillary lists drawn from the pools.
	for i := 0; i < 3; i++ {
		cfg.AddASPathList(fmt.Sprintf("AS%d", i),
			ios.ASPathEntry{Permit: rng.Intn(4) != 0, Regex: pathRegexes[rng.Intn(len(pathRegexes))]})
	}
	for i := 0; i < 3; i++ {
		pfx := netip.MustParsePrefix(prefixCIDRs[rng.Intn(len(prefixCIDRs))])
		e := ios.PrefixListEntry{Seq: 10, Permit: true, Prefix: pfx.Masked()}
		if rng.Intn(2) == 0 {
			le := pfx.Bits() + rng.Intn(33-pfx.Bits())
			if le > pfx.Bits() {
				e.Le = le
			}
		}
		cfg.AddPrefixList(fmt.Sprintf("PL%d", i), e)
	}
	for i := 0; i < 2; i++ {
		cfg.AddCommunityList(fmt.Sprintf("CE%d", i), true,
			ios.CommunityListEntry{Permit: true, Values: []string{commRegexes[rng.Intn(len(commRegexes))]}})
	}
	cfg.AddCommunityList("CS0", false,
		ios.CommunityListEntry{Permit: true, Values: []string{communities[rng.Intn(len(communities))]}})

	rm := cfg.AddRouteMap(mapName)
	for i := 0; i < nStanzas; i++ {
		st := &ios.Stanza{Seq: (i + 1) * 10, Permit: rng.Intn(3) != 0}
		for _, m := range randomMatches(rng) {
			st.Matches = append(st.Matches, m)
		}
		if st.Permit {
			st.Sets = randomSets(rng)
		}
		rm.Stanzas = append(rm.Stanzas, st)
	}
	return cfg
}

// AddTransit adds k ≤ 6 as-path lists to cfg, each a transit condition
// "_N_" over a distinct ASN of the pool Route draws paths from, and one
// stanza matching each at a random position of the route map mapName. The
// conditions are independent, so they multiply the space's as-path atoms.
func AddTransit(rng *rand.Rand, cfg *ios.Config, mapName string, k int) {
	rm := cfg.RouteMaps[mapName]
	for i, j := range rng.Perm(len(asns))[:k] {
		name := fmt.Sprintf("TR%d", i)
		cfg.AddASPathList(name, ios.ASPathEntry{Permit: rng.Intn(4) != 0, Regex: fmt.Sprintf("_%d_", asns[j])})
		st := &ios.Stanza{Permit: rng.Intn(3) != 0}
		st.Matches = append([]ios.Match{ios.MatchASPath{List: name}}, randomMatches(rng)...)
		if st.Permit {
			st.Sets = randomSets(rng)
		}
		rm.InsertStanza(rng.Intn(len(rm.Stanzas)+1), st)
	}
}

func randomMatches(rng *rand.Rand) []ios.Match {
	var out []ios.Match
	if rng.Intn(3) == 0 {
		out = append(out, ios.MatchASPath{List: fmt.Sprintf("AS%d", rng.Intn(3))})
	}
	if rng.Intn(2) == 0 {
		out = append(out, ios.MatchPrefixList{List: fmt.Sprintf("PL%d", rng.Intn(3))})
	}
	if rng.Intn(5) == 0 {
		out = append(out, ios.MatchNextHop{List: fmt.Sprintf("PL%d", rng.Intn(3))})
	}
	if rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			out = append(out, ios.MatchCommunity{List: "CS0"})
		} else {
			out = append(out, ios.MatchCommunity{List: fmt.Sprintf("CE%d", rng.Intn(2))})
		}
	}
	if rng.Intn(4) == 0 {
		out = append(out, ios.MatchLocalPref{Value: localPrefs[rng.Intn(len(localPrefs))]})
	}
	if rng.Intn(5) == 0 {
		out = append(out, ios.MatchMetric{Value: meds[rng.Intn(len(meds))]})
	}
	if rng.Intn(6) == 0 {
		out = append(out, ios.MatchTag{Value: uint32(rng.Intn(4))})
	}
	return out
}

func randomSets(rng *rand.Rand) []ios.SetClause {
	var out []ios.SetClause
	if rng.Intn(2) == 0 {
		out = append(out, ios.SetMetric{Value: meds[rng.Intn(len(meds))]})
	}
	if rng.Intn(3) == 0 {
		out = append(out, ios.SetLocalPref{Value: localPrefs[rng.Intn(len(localPrefs))]})
	}
	if rng.Intn(3) == 0 {
		out = append(out, ios.SetCommunity{
			Communities: []string{communities[rng.Intn(len(communities))]},
			Additive:    rng.Intn(2) == 0,
		})
	}
	if rng.Intn(4) == 0 {
		out = append(out, ios.SetWeight{Value: uint16(rng.Intn(100))})
	}
	if rng.Intn(4) == 0 {
		out = append(out, ios.SetTag{Value: uint32(rng.Intn(4))})
	}
	return out
}

// ACL builds a random ACL with n entries over small address/port pools.
func ACL(rng *rand.Rand, name string, n int) *ios.Config {
	cfg := ios.NewConfig()
	acl := cfg.AddACL(name)
	for i := 0; i < n; i++ {
		acl.Entries = append(acl.Entries, RandomACE(rng, (i+1)*10))
	}
	return cfg
}

// RandomACE draws one access-control entry.
func RandomACE(rng *rand.Rand, seq int) *ios.ACE {
	protos := []ios.ProtoSpec{{Any: true}, {Value: 6}, {Value: 17}, {Value: 1}}
	e := &ios.ACE{
		Seq:      seq,
		Permit:   rng.Intn(2) == 0,
		Protocol: protos[rng.Intn(len(protos))],
		Src:      randomAddrSpec(rng),
		Dst:      randomAddrSpec(rng),
	}
	if !e.Protocol.Any && (e.Protocol.Value == 6 || e.Protocol.Value == 17) {
		e.SrcPort = randomPortSpec(rng)
		e.DstPort = randomPortSpec(rng)
		if e.Protocol.Value == 6 && rng.Intn(5) == 0 {
			e.Established = true
		}
	}
	if !e.Protocol.Any && e.Protocol.Value == 1 && rng.Intn(2) == 0 {
		spec := &ios.ICMPSpec{Type: []uint8{0, 3, 8, 11}[rng.Intn(4)]}
		if rng.Intn(2) == 0 {
			spec.HasCode = true
			spec.Code = uint8(rng.Intn(2))
		}
		e.ICMP = spec
	}
	return e
}

func randomAddrSpec(rng *rand.Rand) ios.AddrSpec {
	switch rng.Intn(4) {
	case 0:
		return ios.AddrSpec{Any: true}
	case 1:
		return ios.AddrSpec{Addr: netip.MustParseAddr([]string{"1.1.1.1", "2.2.2.2", "10.0.0.5"}[rng.Intn(3)])}
	default:
		base := []string{"10.0.0.0", "10.0.1.0", "192.168.0.0"}[rng.Intn(3)]
		wild := []uint32{0xFF, 0xFFFF, 0x00FF00FF}[rng.Intn(3)]
		return ios.AddrSpec{Addr: netip.MustParseAddr(base), Wildcard: wild}
	}
}

func randomPortSpec(rng *rand.Rand) ios.PortSpec {
	ports := []uint16{0, 22, 80, 179, 1024, 65535}
	switch rng.Intn(6) {
	case 0:
		return ios.PortSpec{}
	case 1:
		return ios.PortSpec{Op: ios.PortEq, Lo: ports[rng.Intn(len(ports))]}
	case 2:
		return ios.PortSpec{Op: ios.PortNeq, Lo: ports[rng.Intn(len(ports))]}
	case 3:
		return ios.PortSpec{Op: ios.PortLt, Lo: ports[rng.Intn(len(ports))]}
	case 4:
		return ios.PortSpec{Op: ios.PortGt, Lo: ports[rng.Intn(len(ports))]}
	default:
		lo := ports[rng.Intn(3)]
		return ios.PortSpec{Op: ios.PortRange, Lo: lo, Hi: lo + uint16(rng.Intn(1000))}
	}
}
