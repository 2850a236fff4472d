package bdd

import "fmt"

// Vec is a fixed-width bit vector of BDD variables on consecutive levels.
// Bit 0 of the vector is the most significant bit and sits on the first
// level, so numeric comparisons stay shallow. The Vec is the one place that
// knows where its variables sit: Encode writes a total assignment by level,
// and Decode and Assigned read the vector's slice of a cube.
type Vec struct {
	pool  *Pool
	first int    // level of bits[0]
	bits  []Node // bits[0] is the MSB
}

// NewVec returns a vector of width fresh variable references starting at
// level offset (MSB first).
func NewVec(p *Pool, offset, width int) Vec {
	bits := make([]Node, width)
	for i := 0; i < width; i++ {
		bits[i] = p.Var(offset + i)
	}
	return Vec{pool: p, first: offset, bits: bits}
}

// Bit returns the BDD for bit i (0 = MSB).
func (v Vec) Bit(i int) Node { return v.bits[i] }

// EqConst returns the BDD asserting v == value. value must fit in the width.
func (v Vec) EqConst(value uint64) Node {
	v.checkFits(value)
	p := v.pool
	r := True
	// Conjunct from LSB up so the resulting BDD is built bottom-up.
	for i := len(v.bits) - 1; i >= 0; i-- {
		bit := value >> uint(len(v.bits)-1-i) & 1
		if bit == 1 {
			r = p.And(v.bits[i], r)
		} else {
			r = p.And(p.Not(v.bits[i]), r)
		}
	}
	return r
}

// Eq returns the BDD asserting v == w bitwise. The vectors must have equal
// width.
func (v Vec) Eq(w Vec) Node {
	if len(v.bits) != len(w.bits) {
		panic(fmt.Sprintf("bdd: width mismatch %d vs %d", len(v.bits), len(w.bits)))
	}
	p := v.pool
	r := True
	for i := len(v.bits) - 1; i >= 0; i-- {
		r = p.And(p.Iff(v.bits[i], w.bits[i]), r)
	}
	return r
}

// LeqConst returns the BDD asserting v <= value (unsigned).
func (v Vec) LeqConst(value uint64) Node {
	v.checkFits(value)
	p := v.pool
	// Build from LSB: leq = (bit < c) ∨ (bit == c ∧ leqRest)
	r := True
	for i := len(v.bits) - 1; i >= 0; i-- {
		c := value >> uint(len(v.bits)-1-i) & 1
		if c == 1 {
			// bit=0 → strictly less regardless of rest; bit=1 → depends on rest.
			r = p.ITE(v.bits[i], r, True)
		} else {
			// bit=1 → strictly greater; bit=0 → depends on rest.
			r = p.ITE(v.bits[i], False, r)
		}
	}
	return r
}

// GeqConst returns the BDD asserting v >= value (unsigned).
func (v Vec) GeqConst(value uint64) Node {
	v.checkFits(value)
	p := v.pool
	r := True
	for i := len(v.bits) - 1; i >= 0; i-- {
		c := value >> uint(len(v.bits)-1-i) & 1
		if c == 1 {
			r = p.ITE(v.bits[i], r, False)
		} else {
			r = p.ITE(v.bits[i], True, r)
		}
	}
	return r
}

// InRange returns the BDD asserting lo <= v <= hi (unsigned).
func (v Vec) InRange(lo, hi uint64) Node {
	if lo > hi {
		return False
	}
	return v.pool.And(v.GeqConst(lo), v.LeqConst(hi))
}

// PrefixEq returns the BDD asserting that the top nbits of v equal the top
// nbits of value, where value is left-aligned in the vector width (the usual
// IP prefix convention: value is the full-width address, nbits the prefix
// length).
func (v Vec) PrefixEq(value uint64, nbits int) Node {
	if nbits < 0 || nbits > len(v.bits) {
		panic(fmt.Sprintf("bdd: prefix length %d out of range [0,%d]", nbits, len(v.bits)))
	}
	p := v.pool
	r := True
	for i := nbits - 1; i >= 0; i-- {
		bit := value >> uint(len(v.bits)-1-i) & 1
		if bit == 1 {
			r = p.And(v.bits[i], r)
		} else {
			r = p.And(p.Not(v.bits[i]), r)
		}
	}
	return r
}

func (v Vec) checkFits(value uint64) {
	if len(v.bits) < 64 && value >= 1<<uint(len(v.bits)) {
		panic(fmt.Sprintf("bdd: value %d does not fit in %d bits", value, len(v.bits)))
	}
}

// Encode writes value into a total assignment indexed by level, MSB first.
func (v Vec) Encode(assignment []bool, value uint64) {
	v.checkFits(value)
	for i := range v.bits {
		assignment[v.first+i] = value>>uint(len(v.bits)-1-i)&1 == 1
	}
}

// Decode extracts the vector's unsigned value from a cube. Don't-care bits
// default to 0.
func (v Vec) Decode(cube Cube) uint64 {
	var out uint64
	for _, b := range cube[v.first : v.first+len(v.bits)] {
		out <<= 1
		if b == 1 {
			out |= 1
		}
	}
	return out
}

// Assigned reports whether a cube assigns any of the vector's bits.
func (v Vec) Assigned(cube Cube) bool {
	for _, b := range cube[v.first : v.first+len(v.bits)] {
		if b >= 0 {
			return true
		}
	}
	return false
}
