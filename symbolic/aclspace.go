package symbolic

import (
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
)

// Packet header field widths (bits).
const (
	widthProto = 8
	widthIP    = 32
	widthPort  = 16
)

// ACLSpace encodes the packet-header universe for ACL analyses: protocol,
// source address and port, destination address and port, the TCP
// "established" bit, and ICMP type and code — 8+32+16+32+16+1+8+8 = 121 BDD
// variables, in that order from the top.
type ACLSpace struct {
	Pool *bdd.Pool

	offProto, offSrc, offSrcPort, offDst, offDstPort, offEst int
	offICMPType, offICMPCode                                 int

	proto, src, sport, dst, dport, icmpType, icmpCode bdd.Vec
	est                                               bdd.Node
}

// NewACLSpace builds the packet universe. ACL analyses are self-contained,
// so unlike RouteSpace no configuration needs to be supplied up front.
func NewACLSpace() *ACLSpace {
	s := &ACLSpace{}
	off := 0
	next := func(w int) int {
		o := off
		off += w
		return o
	}
	s.offProto = next(widthProto)
	s.offSrc = next(widthIP)
	s.offSrcPort = next(widthPort)
	s.offDst = next(widthIP)
	s.offDstPort = next(widthPort)
	s.offEst = next(1)
	s.offICMPType = next(8)
	s.offICMPCode = next(8)

	s.Pool = bdd.NewPool(off)
	s.proto = bdd.NewVec(s.Pool, s.offProto, widthProto)
	s.src = bdd.NewVec(s.Pool, s.offSrc, widthIP)
	s.sport = bdd.NewVec(s.Pool, s.offSrcPort, widthPort)
	s.dst = bdd.NewVec(s.Pool, s.offDst, widthIP)
	s.dport = bdd.NewVec(s.Pool, s.offDstPort, widthPort)
	s.est = s.Pool.Var(s.offEst)
	s.icmpType = bdd.NewVec(s.Pool, s.offICMPType, 8)
	s.icmpCode = bdd.NewVec(s.Pool, s.offICMPCode, 8)
	return s
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
		pred = p.And(s.est, pred)
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
	return s.FirstMatchWithin(acl, bdd.True)
}

// FirstMatchWithin returns len(acl.Entries)+1 regions inside domain: entry
// i's first-match region ∧ domain, then the packets of domain no entry
// matches. Once domain is used up, later entries are not encoded and their
// regions are False.
func (s *ACLSpace) FirstMatchWithin(acl *ios.ACL, domain bdd.Node) []bdd.Node {
	return FoldFirstMatch(s.Pool, domain, len(acl.Entries), func(i int) bdd.Node { return s.ACEPred(acl.Entries[i]) })
}

// PermitSet returns the BDD of packets the ACL permits.
func (s *ACLSpace) PermitSet(acl *ios.ACL) bdd.Node {
	return permitted(s.Pool, s.FirstMatch(acl), func(i int) bool { return acl.Entries[i].Permit })
}

// EncodePacket renders a concrete packet as a total assignment vector.
func (s *ACLSpace) EncodePacket(pk packet.Packet) []bool {
	v := make([]bool, s.Pool.NumVars())
	asg := map[int]bool{}
	bdd.EncodeVec(asg, s.offProto, widthProto, uint64(pk.Protocol))
	bdd.EncodeVec(asg, s.offSrc, widthIP, uint64(ios.AddrU32(pk.Src)))
	bdd.EncodeVec(asg, s.offSrcPort, widthPort, uint64(pk.SrcPort))
	bdd.EncodeVec(asg, s.offDst, widthIP, uint64(ios.AddrU32(pk.Dst)))
	bdd.EncodeVec(asg, s.offDstPort, widthPort, uint64(pk.DstPort))
	bdd.EncodeVec(asg, s.offICMPType, 8, uint64(pk.ICMPType))
	bdd.EncodeVec(asg, s.offICMPCode, 8, uint64(pk.ICMPCode))
	for lvl, val := range asg {
		v[lvl] = val
	}
	v[s.offEst] = pk.Established
	return v
}

// Decode converts a (possibly partial) satisfying assignment into a concrete
// packet; don't-care bits default to zero.
func (s *ACLSpace) Decode(asg map[int]bool) packet.Packet {
	return packet.Packet{
		Protocol:    uint8(bdd.DecodeVec(asg, s.offProto, widthProto)),
		Src:         ios.U32ToAddr(uint32(bdd.DecodeVec(asg, s.offSrc, widthIP))),
		SrcPort:     uint16(bdd.DecodeVec(asg, s.offSrcPort, widthPort)),
		Dst:         ios.U32ToAddr(uint32(bdd.DecodeVec(asg, s.offDst, widthIP))),
		DstPort:     uint16(bdd.DecodeVec(asg, s.offDstPort, widthPort)),
		Established: asg[s.offEst],
		ICMPType:    uint8(bdd.DecodeVec(asg, s.offICMPType, 8)),
		ICMPCode:    uint8(bdd.DecodeVec(asg, s.offICMPCode, 8)),
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
