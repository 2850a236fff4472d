package symbolic

import (
	"sync"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
)

// ACLSpace encodes the packet-header universe for ACL analyses: protocol,
// source address and port, destination address and port, the TCP
// "established" bit, and ICMP type and code — 8+32+16+32+16+1+8+8 = 121 BDD
// variables, in that order from the top.
type ACLSpace struct {
	Pool *bdd.Pool

	proto, src, sport, dst, dport, est, icmpType, icmpCode bdd.Vec
}

// maxRecycledNodes bounds the pools Release puts back on the free list. No
// update's space held more than 466 nodes in clarify-bench's inproc-acl and
// http-dialogue runs at seed 1, and a pool this small has never doubled its
// unique table (it doubles at 768).
const maxRecycledNodes = 512

// freePools holds the reset pools of released packet spaces. The collector
// empties it, so it keeps nothing a process must budget for.
var freePools sync.Pool

// NewACLSpace builds the packet universe, in a pool a released space left
// behind when there is one. ACL analyses are self-contained, so unlike
// RouteSpace no configuration needs to be supplied up front.
func NewACLSpace() *ACLSpace {
	p, ok := freePools.Get().(*bdd.Pool)
	if !ok {
		p = bdd.NewPool(0)
	}
	return newACLSpaceIn(p)
}

// newACLSpaceIn lays the packet universe out in p, which holds no variable.
func newACLSpaceIn(p *bdd.Pool) *ACLSpace {
	return &ACLSpace{
		Pool:     p,
		proto:    newVec(p, 8),
		src:      newVec(p, 32),
		sport:    newVec(p, 16),
		dst:      newVec(p, 32),
		dport:    newVec(p, 16),
		est:      newVec(p, 1),
		icmpType: newVec(p, 8),
		icmpCode: newVec(p, 8),
	}
}

// Release hands the space's pool to a later NewACLSpace. Nothing may use the
// space, its nodes or its pool afterwards, and a second Release does nothing.
// A pool that holds more than maxRecycledNodes nodes, or whose tables grew,
// is left to the collector instead.
func (s *ACLSpace) Release() {
	p := s.Pool
	if p == nil {
		return
	}
	s.Pool = nil
	if p.Size() > maxRecycledNodes || p.Counters().Growths > 0 {
		return
	}
	p.Reset()
	freePools.Put(p)
}

// ACEPred encodes the match condition of one access-control entry. Fields
// are conjoined from the bottom of the variable order up, so each And walks
// only the field being added.
func (s *ACLSpace) ACEPred(e *ios.ACE) bdd.Node {
	p := s.Pool
	pred := bdd.True
	if e.ICMP != nil {
		if e.ICMP.HasCode {
			pred = s.icmpCode.EqConst(uint64(e.ICMP.Code))
		}
		pred = p.And(s.icmpType.EqConst(uint64(e.ICMP.Type)), pred)
	}
	if e.Established {
		pred = p.And(s.est.Bit(0), pred)
	}
	pred = p.And(s.portPred(e.DstPort, s.dport), pred)
	pred = p.And(s.addrPred(e.Dst, s.dst), pred)
	pred = p.And(s.portPred(e.SrcPort, s.sport), pred)
	pred = p.And(s.addrPred(e.Src, s.src), pred)
	if !e.Protocol.Any {
		pred = p.And(s.proto.EqConst(uint64(e.Protocol.Value)), pred)
	}
	return pred
}

// addrPred encodes a wildcard-mask address spec: every bit whose wildcard
// bit is clear must equal the pattern bit. Bits are conjoined from the LSB
// up, like Vec.EqConst, so each And adds one node.
func (s *ACLSpace) addrPred(a ios.AddrSpec, vec bdd.Vec) bdd.Node {
	if a.Any {
		return bdd.True
	}
	p := s.Pool
	want := ios.AddrU32(a.Addr)
	pred := bdd.True
	for i := 31; i >= 0; i-- {
		mask := uint32(1) << uint(31-i)
		if a.Wildcard&mask != 0 {
			continue
		}
		if want&mask != 0 {
			pred = p.And(vec.Bit(i), pred)
		} else {
			pred = p.And(p.Not(vec.Bit(i)), pred)
		}
	}
	return pred
}

func (s *ACLSpace) portPred(ps ios.PortSpec, vec bdd.Vec) bdd.Node {
	p := s.Pool
	switch ps.Op {
	case ios.PortNone:
		return bdd.True
	case ios.PortEq:
		return vec.EqConst(uint64(ps.Lo))
	case ios.PortNeq:
		return p.Not(vec.EqConst(uint64(ps.Lo)))
	case ios.PortLt:
		if ps.Lo == 0 {
			return bdd.False
		}
		return vec.LeqConst(uint64(ps.Lo) - 1)
	case ios.PortGt:
		if ps.Lo == 0xFFFF {
			return bdd.False
		}
		return vec.GeqConst(uint64(ps.Lo) + 1)
	case ios.PortRange:
		return vec.InRange(uint64(ps.Lo), uint64(ps.Hi))
	}
	return bdd.False
}

// FirstMatch returns per-entry first-match regions plus the final
// matched-by-nothing region (implicit deny).
func (s *ACLSpace) FirstMatch(acl *ios.ACL) []bdd.Node {
	return FoldFirstMatch(s.Pool, bdd.True, len(acl.Entries), func(i int) bdd.Node { return s.ACEPred(acl.Entries[i]) })
}

// FirstMatchWithin returns len(acl.Entries)+1 regions inside the packets of
// e: entry i's first-match region ∧ ACEPred(e), then the packets of e no
// entry matches. An entry whose match box misses e's (acesDisjoint) is not
// encoded: its region is False, and it takes nothing from the packets left.
// Once those are used up, later entries are not encoded either.
func (s *ACLSpace) FirstMatchWithin(acl *ios.ACL, e *ios.ACE) []bdd.Node {
	return FoldFirstMatch(s.Pool, s.ACEPred(e), len(acl.Entries), func(i int) bdd.Node {
		if acesDisjoint(e, acl.Entries[i]) {
			return bdd.False
		}
		return s.ACEPred(acl.Entries[i])
	})
}

// acesDisjoint reports whether no packet matches both a and b. ACEPred is a
// conjunction over disjoint blocks of variables, so the two share no packet
// exactly when, in some field, their constraints share no value.
func acesDisjoint(a, b *ios.ACE) bool {
	switch {
	case !a.Protocol.Any && !b.Protocol.Any && a.Protocol.Value != b.Protocol.Value:
		return true
	case addrsConflict(a.Src, b.Src) || addrsConflict(a.Dst, b.Dst):
		return true
	case !portsMeet(a.SrcPort, b.SrcPort) || !portsMeet(a.DstPort, b.DstPort):
		return true
	case a.ICMP != nil && b.ICMP != nil:
		return a.ICMP.Type != b.ICMP.Type || a.ICMP.HasCode && b.ICMP.HasCode && a.ICMP.Code != b.ICMP.Code
	}
	return false
}

// addrsConflict reports whether some bit both wildcard specs fix differs.
func addrsConflict(a, b ios.AddrSpec) bool {
	if a.Any || b.Any {
		return false
	}
	return (ios.AddrU32(a.Addr)^ios.AddrU32(b.Addr))&^a.Wildcard&^b.Wildcard != 0
}

// portsMeet reports whether some port satisfies both specs.
func portsMeet(a, b ios.PortSpec) bool {
	ra, rb := portRanges(a), portRanges(b)
	for _, x := range ra {
		for _, y := range rb {
			if max(x[0], y[0]) <= min(x[1], y[1]) {
				return true
			}
		}
	}
	return false
}

// portRanges returns the ports ps admits as two closed ranges, as portPred
// encodes them; a range with lo > hi is empty. Only neq needs both.
func portRanges(ps ios.PortSpec) [2][2]int {
	lo, hi := int(ps.Lo), int(ps.Hi)
	none := [2]int{1, 0}
	switch ps.Op {
	case ios.PortNone:
		return [2][2]int{{0, 0xFFFF}, none}
	case ios.PortEq:
		return [2][2]int{{lo, lo}, none}
	case ios.PortNeq:
		return [2][2]int{{0, lo - 1}, {lo + 1, 0xFFFF}}
	case ios.PortLt:
		return [2][2]int{{0, lo - 1}, none}
	case ios.PortGt:
		return [2][2]int{{lo + 1, 0xFFFF}, none}
	case ios.PortRange:
		return [2][2]int{{lo, hi}, none}
	}
	return [2][2]int{none, none}
}

// PermitSet returns the BDD of packets the ACL permits.
func (s *ACLSpace) PermitSet(acl *ios.ACL) bdd.Node {
	return permitted(s.Pool, s.FirstMatch(acl), func(i int) bool { return acl.Entries[i].Permit })
}

// EncodePacket renders a concrete packet as a total assignment vector.
func (s *ACLSpace) EncodePacket(pk packet.Packet) []bool {
	v := make([]bool, s.Pool.NumVars())
	s.proto.Encode(v, uint64(pk.Protocol))
	s.src.Encode(v, uint64(ios.AddrU32(pk.Src)))
	s.sport.Encode(v, uint64(pk.SrcPort))
	s.dst.Encode(v, uint64(ios.AddrU32(pk.Dst)))
	s.dport.Encode(v, uint64(pk.DstPort))
	if pk.Established {
		s.est.Encode(v, 1)
	}
	s.icmpType.Encode(v, uint64(pk.ICMPType))
	s.icmpCode.Encode(v, uint64(pk.ICMPCode))
	return v
}

// Decode converts a satisfying cube into a concrete packet; don't-care bits
// default to zero.
func (s *ACLSpace) Decode(asg bdd.Cube) packet.Packet {
	return packet.Packet{
		Protocol:    uint8(s.proto.Decode(asg)),
		Src:         ios.U32ToAddr(uint32(s.src.Decode(asg))),
		SrcPort:     uint16(s.sport.Decode(asg)),
		Dst:         ios.U32ToAddr(uint32(s.dst.Decode(asg))),
		DstPort:     uint16(s.dport.Decode(asg)),
		Established: s.est.Decode(asg) == 1,
		ICMPType:    uint8(s.icmpType.Decode(asg)),
		ICMPCode:    uint8(s.icmpCode.Decode(asg)),
	}
}

// Witness returns a concrete packet satisfying f; ok is false when f is
// unsatisfiable.
func (s *ACLSpace) Witness(f bdd.Node) (packet.Packet, bool) {
	asg, ok := s.Pool.AnySat(f)
	if !ok {
		return packet.Packet{}, false
	}
	return s.Decode(asg), true
}
