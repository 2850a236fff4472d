package ios

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// The paper's §2.1 running example.
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

// The paper's LLM-generated snippet.
const paperSnippet = `ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 seq 10 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
`

func TestParsePaperExample(t *testing.T) {
	cfg, err := Parse(paperISPOut)
	if err != nil {
		t.Fatal(err)
	}
	rm := cfg.RouteMaps["ISP_OUT"]
	if rm == nil {
		t.Fatal("ISP_OUT not parsed")
	}
	if len(rm.Stanzas) != 3 {
		t.Fatalf("got %d stanzas, want 3", len(rm.Stanzas))
	}
	if rm.Stanzas[0].Permit || rm.Stanzas[1].Permit || !rm.Stanzas[2].Permit {
		t.Error("stanza actions wrong")
	}
	if got := rm.Stanzas[0].Matches[0].(MatchASPath).List; got != "D0" {
		t.Errorf("stanza 10 matches %q, want D0", got)
	}
	d1 := cfg.PrefixLists["D1"]
	if len(d1.Entries) != 3 {
		t.Fatalf("D1 has %d entries, want 3", len(d1.Entries))
	}
	lo, hi := d1.Entries[0].LenRange()
	if lo != 8 || hi != 24 {
		t.Errorf("10.0.0.0/8 le 24 range = [%d,%d], want [8,24]", lo, hi)
	}
	lo, hi = d1.Entries[2].LenRange()
	if lo != 24 || hi != 32 {
		t.Errorf("1.0.0.0/20 ge 24 range = [%d,%d], want [24,32]", lo, hi)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseSnippet(t *testing.T) {
	cfg, err := Parse(paperSnippet)
	if err != nil {
		t.Fatal(err)
	}
	cl := cfg.CommunityLists["COM_LIST"]
	if cl == nil || !cl.Expanded {
		t.Fatal("COM_LIST missing or not expanded")
	}
	if cl.Entries[0].Values[0] != "_300:3_" {
		t.Errorf("regex = %q", cl.Entries[0].Values[0])
	}
	st := cfg.RouteMaps["SET_METRIC"].Stanzas[0]
	if len(st.Matches) != 2 || len(st.Sets) != 1 {
		t.Fatalf("stanza shape wrong: %d matches, %d sets", len(st.Matches), len(st.Sets))
	}
	if st.Sets[0].(SetMetric).Value != 55 {
		t.Error("set metric != 55")
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{paperISPOut, paperSnippet} {
		cfg, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := cfg.Print()
		cfg2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, printed)
		}
		if printed2 := cfg2.Print(); printed2 != printed {
			t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
		}
	}
}

func TestStanzaOrderBySeq(t *testing.T) {
	cfg := MustParse(`route-map RM permit 30
route-map RM deny 10
route-map RM permit 20
`)
	rm := cfg.RouteMaps["RM"]
	if rm.Stanzas[0].Seq != 10 || rm.Stanzas[1].Seq != 20 || rm.Stanzas[2].Seq != 30 {
		t.Errorf("stanzas not ordered by seq: %d %d %d", rm.Stanzas[0].Seq, rm.Stanzas[1].Seq, rm.Stanzas[2].Seq)
	}
}

func TestDuplicateSeqRejected(t *testing.T) {
	_, err := Parse("route-map RM permit 10\nroute-map RM deny 10\n")
	if err == nil {
		t.Fatal("duplicate sequence number should fail")
	}
}

func TestParseACL(t *testing.T) {
	cfg := MustParse(`ip access-list extended EDGE_IN
 permit tcp host 1.1.1.1 host 2.2.2.2 eq www
 deny udp 10.0.0.0 0.0.0.255 any
 permit tcp any any established
 deny ip any any
`)
	acl := cfg.ACLs["EDGE_IN"]
	if len(acl.Entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(acl.Entries))
	}
	e0 := acl.Entries[0]
	if !e0.Permit || e0.Protocol.Value != 6 || e0.DstPort.Op != PortEq || e0.DstPort.Lo != 80 {
		t.Errorf("entry 0 wrong: %s", e0)
	}
	if e0.Seq != 10 || acl.Entries[3].Seq != 40 {
		t.Error("auto sequence numbering wrong")
	}
	e1 := acl.Entries[1]
	if e1.Src.Wildcard != 0xFF {
		t.Errorf("wildcard = %#x, want 0xff", e1.Src.Wildcard)
	}
	if !e1.Src.Matches(netip.MustParseAddr("10.0.0.200")) || e1.Src.Matches(netip.MustParseAddr("10.0.1.1")) {
		t.Error("wildcard matching wrong")
	}
	if !acl.Entries[2].Established {
		t.Error("established flag lost")
	}
}

func TestParseNumberedACL(t *testing.T) {
	cfg := MustParse(`access-list 101 permit tcp host 1.1.1.1 any eq 80
access-list 101 deny ip any any
`)
	acl := cfg.ACLs["101"]
	if acl == nil || len(acl.Entries) != 2 {
		t.Fatal("numbered ACL not parsed")
	}
}

func TestParsePortForms(t *testing.T) {
	cfg := MustParse(`ip access-list extended P
 permit tcp any gt 1023 any eq bgp
 permit udp any range 5000 5100 any lt 53
 permit tcp any neq 22 any
`)
	es := cfg.ACLs["P"].Entries
	if es[0].SrcPort.Op != PortGt || es[0].SrcPort.Lo != 1023 || es[0].DstPort.Lo != 179 {
		t.Error("gt/eq-keyword parse wrong")
	}
	if es[1].SrcPort.Op != PortRange || es[1].SrcPort.Hi != 5100 || es[1].DstPort.Op != PortLt {
		t.Error("range/lt parse wrong")
	}
	if es[2].SrcPort.Op != PortNeq {
		t.Error("neq parse wrong")
	}
	if !es[2].SrcPort.Matches(23) || es[2].SrcPort.Matches(22) {
		t.Error("neq matching wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"route-map RM allow 10\n",
		"route-map RM permit ten\n",
		"match as-path D0\n", // outside stanza
		"route-map RM permit 10\n match frobnicate X\n",
		"route-map RM permit 10\n set metric lots\n",
		"ip prefix-list L seq 5 permit 10.0.0.0/8 ge 4\n", // ge < prefix len
		"ip prefix-list L permit 500.0.0.0/8\n",
		"ip as-path access-list\n",
		"ip access-list extended A\n permit tcp any\n",
		"ip access-list extended A\n permit ip any any eq 80\n",        // port on ip
		"ip access-list extended A\n permit udp any any established\n", // established on udp
		"access-list 10 permit ip any any\n",                           // standard number
		"frobnicate\n",
		"route-map RM permit 10\n set community notacomm\n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	cfg := MustParse("! a comment\n\n# another\nroute-map RM permit 10\n")
	if len(cfg.RouteMaps["RM"].Stanzas) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestFreshName(t *testing.T) {
	cfg := MustParse(paperISPOut)
	if got := cfg.FreshName("D2"); got != "D2" {
		t.Errorf("FreshName(D2) = %q", got)
	}
	if got := cfg.FreshName("D1"); got != "D12" {
		t.Errorf("FreshName(D1) = %q, want D12", got)
	}
	if got := cfg.FreshName("ISP_OUT"); got != "ISP_OUT2" {
		t.Errorf("FreshName(ISP_OUT) = %q", got)
	}
}

func TestRenameList(t *testing.T) {
	cfg := MustParse(paperSnippet)
	cfg.RenameList("COM_LIST", "D2")
	cfg.RenameList("PREFIX_100", "D3")
	if _, ok := cfg.CommunityLists["D2"]; !ok {
		t.Fatal("community list not renamed")
	}
	if _, ok := cfg.PrefixLists["D3"]; !ok {
		t.Fatal("prefix list not renamed")
	}
	st := cfg.RouteMaps["SET_METRIC"].Stanzas[0]
	if st.Matches[0].(MatchCommunity).List != "D2" || st.Matches[1].(MatchPrefixList).List != "D3" {
		t.Error("references not rewritten")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate after rename: %v", err)
	}
	if strings.Contains(cfg.Print(), "COM_LIST") {
		t.Error("old name survives in printed output")
	}
}

func TestInsertStanzaAndRenumber(t *testing.T) {
	cfg := MustParse(paperISPOut)
	rm := cfg.RouteMaps["ISP_OUT"]
	newStanza := &Stanza{Permit: true, Matches: []Match{MatchCommunity{List: "D2"}}}
	rm.InsertStanza(0, newStanza)
	if rm.Stanzas[0] != newStanza {
		t.Fatal("not inserted at top")
	}
	for i, st := range rm.Stanzas {
		if st.Seq != (i+1)*10 {
			t.Errorf("stanza %d has seq %d", i, st.Seq)
		}
	}
	rm2 := MustParse(paperISPOut).RouteMaps["ISP_OUT"]
	rm2.InsertStanza(3, newStanza.Clone())
	if rm2.Stanzas[3].Matches[0].(MatchCommunity).List != "D2" {
		t.Fatal("not inserted at bottom")
	}
}

func TestMergeCollision(t *testing.T) {
	a := MustParse(paperISPOut)
	b := MustParse("ip prefix-list D1 seq 10 permit 9.0.0.0/8\n")
	if err := a.Merge(b); err == nil {
		t.Fatal("merge should detect duplicate D1")
	}
	c := MustParse(paperSnippet)
	if err := a.Merge(c); err != nil {
		t.Fatalf("disjoint merge failed: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate after merge: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustParse(paperISPOut)
	b := a.Clone()
	b.RouteMaps["ISP_OUT"].Stanzas[0].Permit = true
	if a.RouteMaps["ISP_OUT"].Stanzas[0].Permit {
		t.Error("clone shares stanza storage")
	}
	b.PrefixLists["D1"].Entries[0].Le = 9
	if a.PrefixLists["D1"].Entries[0].Le == 9 {
		t.Error("clone shares prefix-list storage")
	}
}

func TestValidateCatchesDangling(t *testing.T) {
	cfg := MustParse("route-map RM permit 10\n match as-path NOPE\n")
	if err := cfg.Validate(); err == nil {
		t.Fatal("dangling as-path reference not caught")
	}
}

func TestStandardCommunityList(t *testing.T) {
	cfg := MustParse("ip community-list standard CL permit 100:1 100:2\n")
	cl := cfg.CommunityLists["CL"]
	if cl.Expanded {
		t.Fatal("standard list parsed as expanded")
	}
	if len(cl.Entries[0].Values) != 2 {
		t.Fatal("standard list values wrong")
	}
	if _, err := Parse("ip community-list standard CL permit 100:1\nip community-list expanded CL permit _1_\n"); err == nil {
		t.Error("mixed standard/expanded should fail")
	}
}

// TestParseLineLimit: lines grow the scanner's buffer up to the 1 MiB line
// limit; longer lines are an error.
func TestParseLineLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("ip community-list standard BIG permit")
	values := 0
	for ; sb.Len() < 100*1024; values++ {
		fmt.Fprintf(&sb, " 65000:%d", values)
	}
	cfg, err := Parse(sb.String() + "\n")
	if err != nil {
		t.Fatalf("100 KiB line: %v", err)
	}
	if n := len(cfg.CommunityLists["BIG"].Entries[0].Values); n != values {
		t.Fatalf("100 KiB line parsed %d values, want %d", n, values)
	}
	long := "!" + strings.Repeat("x", 1024*1024-1)
	if _, err := Parse(long + "\n"); err == nil {
		t.Error("1 MiB line parsed; want the line-limit error")
	}
}

func TestSetClauses(t *testing.T) {
	cfg := MustParse(`route-map RM permit 10
 set local-preference 200
 set community 300:3 400:4 additive
 set ip next-hop 10.0.0.1
 set weight 100
 set tag 777
`)
	sets := cfg.RouteMaps["RM"].Stanzas[0].Sets
	if len(sets) != 5 {
		t.Fatalf("got %d sets", len(sets))
	}
	sc := sets[1].(SetCommunity)
	if !sc.Additive || len(sc.Communities) != 2 {
		t.Error("set community additive parse wrong")
	}
}

func TestParseICMPTypes(t *testing.T) {
	cfg := MustParse(`ip access-list extended I
 permit icmp any any echo
 permit icmp any any echo-reply
 deny icmp any any unreachable 1
 permit icmp any any 42
 permit icmp any any
`)
	es := cfg.ACLs["I"].Entries
	if es[0].ICMP == nil || es[0].ICMP.Type != 8 || es[0].ICMP.HasCode {
		t.Errorf("echo parse wrong: %+v", es[0].ICMP)
	}
	if es[1].ICMP.Type != 0 {
		t.Errorf("echo-reply parse wrong: %+v", es[1].ICMP)
	}
	if es[2].ICMP.Type != 3 || !es[2].ICMP.HasCode || es[2].ICMP.Code != 1 {
		t.Errorf("unreachable 1 parse wrong: %+v", es[2].ICMP)
	}
	if es[3].ICMP.Type != 42 {
		t.Errorf("numeric type parse wrong: %+v", es[3].ICMP)
	}
	if es[4].ICMP != nil {
		t.Error("bare icmp entry should have no ICMP spec")
	}
	// Round trip.
	printed := cfg.Print()
	if MustParse(printed).Print() != printed {
		t.Errorf("ICMP entries not round-trip stable:\n%s", printed)
	}
	// Keyword rendering.
	if got := es[0].String(); !strings.Contains(got, "echo") {
		t.Errorf("String = %q", got)
	}
}

func TestParseICMPErrors(t *testing.T) {
	for _, bad := range []string{
		"ip access-list extended I\n permit icmp any any frobnicate\n",
		"ip access-list extended I\n permit icmp any any 300\n",
		"ip access-list extended I\n permit icmp any any echo xyz\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestICMPSpecMatches(t *testing.T) {
	typeOnly := &ICMPSpec{Type: 8}
	if !typeOnly.Matches(8, 0) || !typeOnly.Matches(8, 7) || typeOnly.Matches(0, 0) {
		t.Error("type-only spec wrong")
	}
	withCode := &ICMPSpec{Type: 3, HasCode: true, Code: 1}
	if !withCode.Matches(3, 1) || withCode.Matches(3, 2) || withCode.Matches(8, 1) {
		t.Error("type+code spec wrong")
	}
}

func TestRemoveRouteMap(t *testing.T) {
	cfg := MustParse(paperISPOut)
	cfg.RemoveRouteMap("ISP_OUT")
	if _, ok := cfg.RouteMaps["ISP_OUT"]; ok {
		t.Fatal("route-map not removed")
	}
	if strings.Contains(cfg.Print(), "route-map") {
		t.Error("removed map still printed")
	}
	cfg.RemoveRouteMap("NOPE") // no-op must not panic
}

func TestMergeAllKinds(t *testing.T) {
	a := MustParse("ip as-path access-list A permit _1_\nip community-list expanded C permit _2:2_\n")
	b := MustParse("ip access-list extended ACL1\n permit ip any any\nroute-map RM permit 10\n")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.ACLs["ACL1"]; !ok {
		t.Error("ACL not merged")
	}
	if _, ok := a.RouteMaps["RM"]; !ok {
		t.Error("route-map not merged")
	}
	// Duplicate as-path / community / ACL / route-map all collide.
	for _, dup := range []string{
		"ip as-path access-list A permit _9_\n",
		"ip community-list expanded C permit _9:9_\n",
		"ip access-list extended ACL1\n deny ip any any\n",
		"route-map RM deny 10\n",
	} {
		if err := a.Merge(MustParse(dup)); err == nil {
			t.Errorf("Merge(%q) should collide", dup)
		}
	}
}

func TestRenameListAllKinds(t *testing.T) {
	cfg := MustParse(`ip as-path access-list AP permit _1_
ip community-list expanded CL permit _2:2_
ip prefix-list PL seq 10 permit 10.0.0.0/8
route-map RM permit 10
 match as-path AP
 match community CL
 match ip address prefix-list PL
 match ip next-hop prefix-list PL
`)
	cfg.RenameList("AP", "AP2")
	cfg.RenameList("CL", "CL2")
	cfg.RenameList("PL", "PL2")
	cfg.RenameList("GHOST", "X") // no-op
	if err := cfg.Validate(); err != nil {
		t.Fatalf("validate after renames: %v", err)
	}
	st := cfg.RouteMaps["RM"].Stanzas[0]
	if st.Matches[0].(MatchASPath).List != "AP2" ||
		st.Matches[1].(MatchCommunity).List != "CL2" ||
		st.Matches[2].(MatchPrefixList).List != "PL2" ||
		st.Matches[3].(MatchNextHop).List != "PL2" {
		t.Errorf("references not rewritten: %+v", st.Matches)
	}
}

func TestValidateNextHopReference(t *testing.T) {
	cfg := MustParse("route-map RM permit 10\n match ip next-hop prefix-list GHOST\n")
	if err := cfg.Validate(); err == nil {
		t.Fatal("dangling next-hop prefix-list not caught")
	}
}

func TestMatchAndSetStrings(t *testing.T) {
	cases := map[string]string{
		MatchASPath{List: "A"}.String():                                       "match as-path A",
		MatchPrefixList{List: "P"}.String():                                   "match ip address prefix-list P",
		MatchNextHop{List: "N"}.String():                                      "match ip next-hop prefix-list N",
		MatchCommunity{List: "C"}.String():                                    "match community C",
		MatchLocalPref{Value: 7}.String():                                     "match local-preference 7",
		MatchMetric{Value: 8}.String():                                        "match metric 8",
		MatchTag{Value: 9}.String():                                           "match tag 9",
		SetMetric{Value: 1}.String():                                          "set metric 1",
		SetLocalPref{Value: 2}.String():                                       "set local-preference 2",
		SetWeight{Value: 3}.String():                                          "set weight 3",
		SetTag{Value: 4}.String():                                             "set tag 4",
		(SetCommunity{Communities: []string{"1:1"}, Additive: true}).String(): "set community 1:1 additive",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}
