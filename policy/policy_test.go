package policy

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
)

const paperISPOut = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
`

func evalISPOut(t *testing.T, r route.Route) RouteVerdict {
	t.Helper()
	cfg := ios.MustParse(paperISPOut)
	v, err := NewEvaluator(cfg).EvalRouteMap(cfg.RouteMaps["ISP_OUT"], r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPaperRouteMapSemantics(t *testing.T) {
	// Route from ASN 32 → denied by stanza 10.
	v := evalISPOut(t, route.New("50.0.0.0/16").WithASPath(100, 32))
	if v.Index != 0 || v.Permit {
		t.Errorf("ASN-32 route: verdict %+v, want deny at stanza 0", v)
	}
	// Prefix in D1 → denied by stanza 20.
	v = evalISPOut(t, route.New("10.5.0.0/16").WithASPath(7))
	if v.Index != 1 || v.Permit {
		t.Errorf("D1 route: verdict %+v, want deny at stanza 1", v)
	}
	// local-preference 300 → permitted by stanza 30.
	r := route.New("50.0.0.0/16").WithASPath(7)
	r.LocalPref = 300
	v = evalISPOut(t, r)
	if v.Index != 2 || !v.Permit {
		t.Errorf("lp-300 route: verdict %+v, want permit at stanza 2", v)
	}
	// Nothing matches → implicit deny.
	v = evalISPOut(t, route.New("50.0.0.0/16").WithASPath(7))
	if v.Index != ImplicitDeny || v.Permit {
		t.Errorf("default route: verdict %+v, want implicit deny", v)
	}
}

func TestPrefixListGeLe(t *testing.T) {
	cfg := ios.MustParse(paperISPOut)
	d1 := cfg.PrefixLists["D1"]
	cases := []struct {
		cidr string
		want bool
	}{
		{"10.0.0.0/8", true},   // len 8 in [8,24]
		{"10.1.0.0/24", true},  // len 24 in [8,24]
		{"10.1.0.0/25", false}, // len 25 > 24
		{"11.0.0.0/8", false},  // outside 10/8
		{"20.0.0.0/16", true},  // len 16 in [16,32]
		{"20.0.1.0/32", true},  // le 32
		{"20.1.0.0/16", false}, // outside 20.0/16
		{"1.0.0.0/20", false},  // ge 24 excludes len 20
		{"1.0.1.0/24", true},   // len 24 in [24,32]
		{"1.0.8.0/24", true},   // still inside 1.0.0.0/20
		{"1.0.16.0/24", false}, // outside 1.0.0.0/20
	}
	for _, c := range cases {
		r := route.New(c.cidr)
		if got := PrefixListPermits(d1, r); got != c.want {
			t.Errorf("D1 on %s = %v, want %v", c.cidr, got, c.want)
		}
	}
}

func TestPrefixListSeqOrderAndDeny(t *testing.T) {
	cfg := ios.MustParse(`ip prefix-list L seq 20 permit 10.0.0.0/8 le 32
ip prefix-list L seq 10 deny 10.1.0.0/16 le 32
`)
	l := cfg.PrefixLists["L"]
	if PrefixListPermits(l, route.New("10.1.2.0/24")) {
		t.Error("seq 10 deny must win despite later parse position")
	}
	if !PrefixListPermits(l, route.New("10.2.0.0/16")) {
		t.Error("seq 20 permit should match")
	}
}

func TestASPathListEntries(t *testing.T) {
	cfg := ios.MustParse(`ip as-path access-list A deny _666_
ip as-path access-list A permit _100_
route-map RM permit 10
 match as-path A
`)
	ev := NewEvaluator(cfg)
	rm := cfg.RouteMaps["RM"]
	v, err := ev.EvalRouteMap(rm, route.New("9.0.0.0/8").WithASPath(666, 100))
	if err != nil {
		t.Fatal(err)
	}
	if v.Permit {
		t.Error("deny entry should win first-match")
	}
	v, _ = ev.EvalRouteMap(rm, route.New("9.0.0.0/8").WithASPath(50, 100))
	if !v.Permit {
		t.Error("permit entry should match path containing 100")
	}
	v, _ = ev.EvalRouteMap(rm, route.New("9.0.0.0/8").WithASPath(50))
	if v.Index != ImplicitDeny {
		t.Error("unmatched path should fall to implicit deny")
	}
}

// TestASPathLongASNs matches as-path regexes against paths holding an ASN
// of more than five digits. Cisco searches the path's text, so such an ASN
// neither hides the path from .* nor from a regex naming another ASN on it.
func TestASPathLongASNs(t *testing.T) {
	paths := [][]uint32{{65000}, {4200000000}, {65000, 4200000000}}
	for _, c := range []struct {
		regex string
		want  []bool // one per path
	}{
		{".*", []bool{true, true, true}},
		{"_65000_", []bool{true, false, true}},
		{"_4200000000_", []bool{false, true, true}},
	} {
		cfg := ios.MustParse("ip as-path access-list A permit " + c.regex + "\nroute-map RM permit 10\n match as-path A\n")
		ev := NewEvaluator(cfg)
		for i, p := range paths {
			v, err := ev.EvalRouteMap(cfg.RouteMaps["RM"], route.New("9.0.0.0/8").WithASPath(p...))
			if err != nil {
				t.Fatal(err)
			}
			if v.Permit != c.want[i] {
				t.Errorf("%s on path %v: permit %v, want %v", c.regex, p, v.Permit, c.want[i])
			}
		}
	}
}

func TestCommunityLists(t *testing.T) {
	cfg := ios.MustParse(`ip community-list expanded E permit _300:3_
ip community-list standard S permit 100:1 100:2
route-map RM1 permit 10
 match community E
route-map RM2 permit 10
 match community S
`)
	ev := NewEvaluator(cfg)
	r := route.New("9.0.0.0/8").WithCommunities("300:3", "7:7")
	v, err := ev.EvalRouteMap(cfg.RouteMaps["RM1"], r)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Permit {
		t.Error("expanded list should match any community")
	}
	v, _ = ev.EvalRouteMap(cfg.RouteMaps["RM1"], route.New("9.0.0.0/8").WithCommunities("1300:3"))
	if v.Permit {
		t.Error("_300:3_ must respect boundaries")
	}
	// Standard list: all literals must be present.
	v, _ = ev.EvalRouteMap(cfg.RouteMaps["RM2"], route.New("9.0.0.0/8").WithCommunities("100:1"))
	if v.Permit {
		t.Error("standard entry needs every listed community")
	}
	v, _ = ev.EvalRouteMap(cfg.RouteMaps["RM2"], route.New("9.0.0.0/8").WithCommunities("100:1", "100:2", "5:5"))
	if !v.Permit {
		t.Error("standard entry should match superset")
	}
}

func TestApplySets(t *testing.T) {
	cfg := ios.MustParse(`route-map RM permit 10
 set metric 55
 set local-preference 200
 set community 9:9 additive
 set weight 10
 set tag 3
 set ip next-hop 10.0.0.9
`)
	in := route.New("100.0.0.0/16").WithCommunities("300:3")
	v, err := NewEvaluator(cfg).EvalRouteMap(cfg.RouteMaps["RM"], in)
	if err != nil {
		t.Fatal(err)
	}
	out := v.Output
	if out.MED != 55 || out.LocalPref != 200 || out.Weight != 10 || out.Tag != 3 {
		t.Errorf("sets not applied: %+v", out)
	}
	if out.NextHop.String() != "10.0.0.9" {
		t.Errorf("next-hop = %s", out.NextHop)
	}
	if !out.HasCommunity(route.MustParseCommunity("9:9")) || !out.HasCommunity(route.MustParseCommunity("300:3")) {
		t.Error("additive community lost existing set")
	}
	if in.MED != 0 {
		t.Error("input route mutated")
	}
}

func TestSetCommunityReplaces(t *testing.T) {
	sets := []ios.SetClause{ios.SetCommunity{Communities: []string{"1:1"}}}
	r := route.New("9.0.0.0/8").WithCommunities("300:3")
	out := ApplySets(sets, r)
	if out.HasCommunity(route.MustParseCommunity("300:3")) || !out.HasCommunity(route.MustParseCommunity("1:1")) {
		t.Errorf("non-additive set community should replace: %v", out.Communities)
	}
}

func TestDenyStanzaSkipsSets(t *testing.T) {
	cfg := ios.MustParse(`route-map RM deny 10
 set metric 99
`)
	in := route.New("9.0.0.0/8")
	v, _ := NewEvaluator(cfg).EvalRouteMap(cfg.RouteMaps["RM"], in)
	if v.Permit || v.Output.MED == 99 {
		t.Error("deny stanza must not transform the route")
	}
}

func TestDanglingReferenceError(t *testing.T) {
	cfg := ios.MustParse("route-map RM permit 10\n match as-path GHOST\n")
	if _, err := NewEvaluator(cfg).EvalRouteMap(cfg.RouteMaps["RM"], route.New("9.0.0.0/8")); err == nil {
		t.Fatal("dangling reference should error")
	}
}

func TestEvalACL(t *testing.T) {
	cfg := ios.MustParse(`ip access-list extended A
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 80
 deny udp 10.0.0.0 0.0.0.255 any
 permit tcp any any established
 deny ip any any
`)
	acl := cfg.ACLs["A"]
	cases := []struct {
		p      packet.Packet
		index  int
		permit bool
	}{
		{withPorts(packet.New("1.1.1.1", "2.2.2.2", 6), 500, 80), 0, true},
		{withPorts(packet.New("1.1.1.1", "2.2.2.2", 6), 500, 81), 3, false},
		{withPorts(packet.New("10.0.0.77", "9.9.9.9", 17), 1, 1), 1, false},
		{established(packet.New("3.3.3.3", "4.4.4.4", 6)), 2, true},
		{packet.New("3.3.3.3", "4.4.4.4", 6), 3, false},
		{packet.New("8.8.8.8", "9.9.9.9", 1), 3, false},
	}
	for i, c := range cases {
		v := EvalACL(acl, c.p)
		if v.Index != c.index || v.Permit != c.permit {
			t.Errorf("case %d (%s): got %+v, want index %d permit %v", i, c.p, v, c.index, c.permit)
		}
	}
}

func TestImplicitDenyACL(t *testing.T) {
	cfg := ios.MustParse("ip access-list extended A\n permit tcp any any eq 22\n")
	v := EvalACL(cfg.ACLs["A"], packet.New("1.1.1.1", "2.2.2.2", 17))
	if v.Index != ImplicitDeny || v.Permit {
		t.Errorf("got %+v, want implicit deny", v)
	}
}

func withPorts(p packet.Packet, src, dst uint16) packet.Packet {
	p.SrcPort, p.DstPort = src, dst
	return p
}

func established(p packet.Packet) packet.Packet {
	p.Established = true
	return p
}

func TestMatchNextHop(t *testing.T) {
	cfg := ios.MustParse(`ip prefix-list NH seq 10 permit 10.0.0.0/8 le 32
route-map RM permit 10
 match ip next-hop prefix-list NH
`)
	ev := NewEvaluator(cfg)
	rm := cfg.RouteMaps["RM"]
	in := route.New("99.0.0.0/8")
	in.NextHop = netip.MustParseAddr("10.1.2.3")
	v, err := ev.EvalRouteMap(rm, in)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Permit {
		t.Error("next-hop 10.1.2.3 should match 10.0.0.0/8 le 32")
	}
	in.NextHop = netip.MustParseAddr("192.0.2.1")
	if v, _ := ev.EvalRouteMap(rm, in); v.Permit {
		t.Error("next-hop outside the list should not match")
	}
	// A list whose length range excludes /32 can never match a next-hop.
	cfg2 := ios.MustParse(`ip prefix-list NH seq 10 permit 10.0.0.0/8 le 24
route-map RM permit 10
 match ip next-hop prefix-list NH
`)
	in.NextHop = netip.MustParseAddr("10.1.2.3")
	if v, _ := NewEvaluator(cfg2).EvalRouteMap(cfg2.RouteMaps["RM"], in); v.Permit {
		t.Error("le 24 excludes /32 host routes")
	}
}

func TestACLICMPMatching(t *testing.T) {
	cfg := ios.MustParse(`ip access-list extended I
 permit icmp any any echo
 deny icmp any any unreachable 1
 permit icmp any any
 deny ip any any
`)
	acl := cfg.ACLs["I"]
	mk := func(typ, code uint8) packet.Packet {
		p := packet.New("1.1.1.1", "2.2.2.2", packet.ProtoICMP)
		p.ICMPType, p.ICMPCode = typ, code
		return p
	}
	if v := EvalACL(acl, mk(8, 0)); v.Index != 0 || !v.Permit {
		t.Errorf("echo: %+v", v)
	}
	if v := EvalACL(acl, mk(3, 1)); v.Index != 1 || v.Permit {
		t.Errorf("unreachable code 1: %+v", v)
	}
	// unreachable with a different code falls through to the catch-all
	// icmp permit.
	if v := EvalACL(acl, mk(3, 2)); v.Index != 2 || !v.Permit {
		t.Errorf("unreachable code 2: %+v", v)
	}
	// Non-icmp traffic skips all icmp entries.
	if v := EvalACL(acl, packet.New("1.1.1.1", "2.2.2.2", packet.ProtoTCP)); v.Index != 3 {
		t.Errorf("tcp: %+v", v)
	}
}

// TestLiteralEntryMatchesAutomaton checks that an expanded community entry
// holding a literal, which the evaluator matches by comparing the route's
// community subjects with it, matches exactly the routes its compiled
// automaton matches. Halves come from small pools, and some of the
// pattern's are written with a leading zero, which no route's community
// renders with.
func TestLiteralEntryMatchesAutomaton(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []uint16{0, 1, 2, 10, 100, 65000, 65535}
	half := func() uint16 { return pool[rng.Intn(len(pool))] }
	text := []string{"0", "1", "2", "10", "100", "65000", "65535", "01", "00", "0100"}
	matched := map[bool]int{}
	for i := 0; i < 500; i++ {
		body := text[rng.Intn(len(text))] + ":" + text[rng.Intn(len(text))]
		p := string("_^"[rng.Intn(2)]) + body + string("_$"[rng.Intn(2)])
		if _, ok := ciscorx.CommunityLiteral(p); !ok {
			t.Fatalf("%q is not a literal", p)
		}
		d, err := ciscorx.CompileCommunity(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ios.MustParse("ip community-list expanded L permit " + p + "\nroute-map RM permit 10\n match community L\n")
		r := route.New("10.0.0.0/8")
		want := false
		for k := rng.Intn(4); k > 0; k-- {
			c := route.Community{Hi: half(), Lo: half()}
			if rng.Intn(2) == 0 { // the pattern's own halves, leading zeros dropped
				c = route.MustParseCommunity(body)
			}
			r = r.AddCommunity(c)
			want = want || d.Matches(ciscorx.CommunitySubject(c.String()))
		}
		v, err := NewEvaluator(cfg).EvalRouteMap(cfg.RouteMaps["RM"], r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Permit != want {
			t.Fatalf("%q on %v: evaluator permits %v, automaton matches %v", p, r.Communities, v.Permit, want)
		}
		matched[want]++
	}
	if matched[true] == 0 || matched[false] == 0 {
		t.Errorf("outcomes %v: want both", matched)
	}
}
