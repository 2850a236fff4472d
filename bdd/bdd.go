// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with hash-consed nodes, an ITE-based apply, existential quantification,
// model counting and witness extraction.
//
// The engine underpins every symbolic analysis in this repository: ACL header
// spaces, symbolic BGP route spaces, first-match partitions and differential
// policy comparison. Pools are cheap to create and are dropped wholesale when
// an analysis finishes, so no garbage collection of dead nodes is performed.
//
// Variables are identified by their level (0 is the topmost level in the
// ordering). Node handles are plain int32 indices into the pool and are only
// meaningful relative to the pool that produced them.
//
// Both the unique table and the ITE cache are open-addressed, linear-probed
// hash tables sized to powers of two, growing at 3/4 load. The unique table
// stores bare node handles and compares keys against the node array (handle 0
// is the False terminal, which is never hash-consed, so 0 doubles as the
// empty-slot sentinel); the ITE cache stores packed (f,g,h,result) quadruples
// (f is never a terminal at the cache, so f==0 marks an empty slot).
package bdd

import (
	"fmt"
	"math/big"
	"sort"
)

// Node is a handle to a BDD node within a Pool.
type Node int32

// Terminal nodes, shared by every pool.
const (
	False Node = 0
	True  Node = 1
)

type node struct {
	level  int32 // variable level; terminals use level = maxLevel sentinel
	lo, hi Node  // cofactors for var=false / var=true
}

const terminalLevel = int32(1<<31 - 1)

// hashTriple mixes a (level,lo,hi) or (f,g,h) key into a table index seed.
// All three components are non-negative int32s, so the packing is injective
// on the low 64 bits before mixing.
func hashTriple(a, b, c int32) uint64 {
	h := uint64(uint32(a))*0x9e3779b97f4a7c15 ^
		uint64(uint32(b))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(c))*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// iteEntry is one memoized ITE result; f == 0 marks an empty slot.
type iteEntry struct {
	f, g, h, r Node
}

// Pool owns the node storage and operation caches for one BDD universe.
// A Pool is not safe for concurrent use.
type Pool struct {
	nodes []node

	// unique is the open-addressed hash-consing table: slots hold node
	// handles (0 = empty), keys live in the nodes array.
	unique      []Node
	uniqueCount int

	// ite is the open-addressed operation cache.
	ite      []iteEntry
	iteCount int

	numVars int

	// satMemo caches per-node SatCount sub-results across calls. Nodes are
	// append-only and immutable, so an entry stays valid for the pool's
	// lifetime — except that terminal weighting depends on numVars, so
	// AddVars drops the memo. Grown lazily to len(nodes) on each SatCount.
	satMemo []*big.Int

	stats Counters
}

// Counters is a snapshot of a pool's cumulative workload: how much symbolic
// computation it has performed since creation. Snapshots taken before and
// after an operation (see Sub) attribute BDD work to individual pipeline
// stages in the obs span tracing.
type Counters struct {
	// ITECalls counts entries into ITE, including recursive ones — the
	// engine's fundamental unit of work.
	ITECalls int64 `json:"iteCalls"`
	// UniqueHits counts hash-cons lookups that found an existing node.
	UniqueHits int64 `json:"uniqueHits"`
	// UniqueMisses counts nodes created (hash-cons lookups that missed).
	UniqueMisses int64 `json:"uniqueMisses"`
	// Growths counts unique-table and ITE-cache doublings.
	Growths int64 `json:"growths"`
}

// Sub returns the counter deltas accumulated since the prev snapshot.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		ITECalls:     c.ITECalls - prev.ITECalls,
		UniqueHits:   c.UniqueHits - prev.UniqueHits,
		UniqueMisses: c.UniqueMisses - prev.UniqueMisses,
		Growths:      c.Growths - prev.Growths,
	}
}

// Add returns the element-wise sum of two snapshots.
func (c Counters) Add(other Counters) Counters {
	return Counters{
		ITECalls:     c.ITECalls + other.ITECalls,
		UniqueHits:   c.UniqueHits + other.UniqueHits,
		UniqueMisses: c.UniqueMisses + other.UniqueMisses,
		Growths:      c.Growths + other.Growths,
	}
}

// Counters returns the pool's cumulative workload counters.
func (p *Pool) Counters() Counters { return p.stats }

const initialTableSize = 1024 // power of two

// NewPool creates a pool over numVars variables, levels 0..numVars-1.
func NewPool(numVars int) *Pool {
	if numVars < 0 {
		panic("bdd: negative variable count")
	}
	p := &Pool{
		nodes:   make([]node, 2, 1024),
		unique:  make([]Node, initialTableSize),
		ite:     make([]iteEntry, initialTableSize),
		numVars: numVars,
	}
	p.nodes[False] = node{level: terminalLevel}
	p.nodes[True] = node{level: terminalLevel}
	return p
}

// NumVars reports the number of variables in the pool's universe.
func (p *Pool) NumVars() int { return p.numVars }

// Size reports the number of live nodes, including the two terminals.
func (p *Pool) Size() int { return len(p.nodes) }

// AddVars grows the universe by n additional variables and returns the level
// of the first new variable. Existing nodes remain valid because levels of
// new variables are appended below all existing ones only in numbering, not
// in ordering semantics; ordering is by level value, so new variables sit at
// the bottom of the order.
func (p *Pool) AddVars(n int) int {
	if n < 0 {
		panic("bdd: negative variable count")
	}
	first := p.numVars
	p.numVars += n
	// Cached sub-counts weight terminals by the old numVars; drop them.
	p.satMemo = nil
	return first
}

func (p *Pool) level(n Node) int32 { return p.nodes[n].level }

// mk returns the hash-consed node (level, lo, hi), applying the reduction
// rule lo==hi.
func (p *Pool) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	mask := uint64(len(p.unique) - 1)
	i := hashTriple(level, int32(lo), int32(hi)) & mask
	for {
		s := p.unique[i]
		if s == 0 {
			break
		}
		nd := &p.nodes[s]
		if nd.level == level && nd.lo == lo && nd.hi == hi {
			p.stats.UniqueHits++
			return s
		}
		i = (i + 1) & mask
	}
	n := Node(len(p.nodes))
	p.nodes = append(p.nodes, node{level: level, lo: lo, hi: hi})
	p.unique[i] = n
	p.uniqueCount++
	p.stats.UniqueMisses++
	if p.uniqueCount*4 >= len(p.unique)*3 {
		p.growUnique()
	}
	return n
}

// growUnique doubles the unique table and reinserts every live handle.
func (p *Pool) growUnique() {
	p.stats.Growths++
	next := make([]Node, len(p.unique)*2)
	mask := uint64(len(next) - 1)
	for _, s := range p.unique {
		if s == 0 {
			continue
		}
		nd := &p.nodes[s]
		i := hashTriple(nd.level, int32(nd.lo), int32(nd.hi)) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s
	}
	p.unique = next
}

// Var returns the BDD for the single variable at the given level.
func (p *Pool) Var(level int) Node {
	if level < 0 || level >= p.numVars {
		panic(fmt.Sprintf("bdd: variable level %d out of range [0,%d)", level, p.numVars))
	}
	return p.mk(int32(level), False, True)
}

// NVar returns the BDD for the negation of the variable at the given level.
func (p *Pool) NVar(level int) Node {
	if level < 0 || level >= p.numVars {
		panic(fmt.Sprintf("bdd: variable level %d out of range [0,%d)", level, p.numVars))
	}
	return p.mk(int32(level), True, False)
}

// iteLookup probes the operation cache for (f,g,h).
func (p *Pool) iteLookup(f, g, h Node) (Node, bool) {
	mask := uint64(len(p.ite) - 1)
	i := hashTriple(int32(f), int32(g), int32(h)) & mask
	for {
		e := &p.ite[i]
		if e.f == 0 {
			return 0, false
		}
		if e.f == f && e.g == g && e.h == h {
			return e.r, true
		}
		i = (i + 1) & mask
	}
}

// iteInsert memoizes ITE(f,g,h) = r, growing the cache at 3/4 load.
func (p *Pool) iteInsert(f, g, h, r Node) {
	mask := uint64(len(p.ite) - 1)
	i := hashTriple(int32(f), int32(g), int32(h)) & mask
	for p.ite[i].f != 0 {
		i = (i + 1) & mask
	}
	p.ite[i] = iteEntry{f: f, g: g, h: h, r: r}
	p.iteCount++
	if p.iteCount*4 >= len(p.ite)*3 {
		p.growITE()
	}
}

func (p *Pool) growITE() {
	p.stats.Growths++
	next := make([]iteEntry, len(p.ite)*2)
	mask := uint64(len(next) - 1)
	for _, e := range p.ite {
		if e.f == 0 {
			continue
		}
		i := hashTriple(int32(e.f), int32(e.g), int32(e.h)) & mask
		for next[i].f != 0 {
			i = (i + 1) & mask
		}
		next[i] = e
	}
	p.ite = next
}

// ITE computes if-then-else: f ? g : h.
func (p *Pool) ITE(f, g, h Node) Node {
	p.stats.ITECalls++
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	// f is a single variable or its negation above both g and h: the result
	// is one node, built without recursion or a cache entry. Every bottom-up
	// build (Not of a variable, a cube conjoined from its lowest bit) hits it.
	if nf := p.nodes[f]; nf.lo <= True && nf.hi <= True && nf.level < p.level(g) && nf.level < p.level(h) {
		if nf.hi == True {
			return p.mk(nf.level, h, g)
		}
		return p.mk(nf.level, g, h)
	}
	if r, ok := p.iteLookup(f, g, h); ok {
		return r
	}
	top := p.level(f)
	if l := p.level(g); l < top {
		top = l
	}
	if l := p.level(h); l < top {
		top = l
	}
	f0, f1 := p.cofactors(f, top)
	g0, g1 := p.cofactors(g, top)
	h0, h1 := p.cofactors(h, top)
	lo := p.ITE(f0, g0, h0)
	hi := p.ITE(f1, g1, h1)
	r := p.mk(top, lo, hi)
	p.iteInsert(f, g, h, r)
	return r
}

func (p *Pool) cofactors(n Node, level int32) (lo, hi Node) {
	nd := p.nodes[n]
	if nd.level != level {
		return n, n
	}
	return nd.lo, nd.hi
}

// And returns the conjunction of a and b.
func (p *Pool) And(a, b Node) Node { return p.ITE(a, b, False) }

// Or returns the disjunction of a and b.
func (p *Pool) Or(a, b Node) Node { return p.ITE(a, True, b) }

// Not returns the negation of a.
func (p *Pool) Not(a Node) Node { return p.ITE(a, False, True) }

// Xor returns the exclusive or of a and b.
func (p *Pool) Xor(a, b Node) Node { return p.ITE(a, p.Not(b), b) }

// Implies returns a → b.
func (p *Pool) Implies(a, b Node) Node { return p.ITE(a, b, True) }

// Iff returns a ↔ b.
func (p *Pool) Iff(a, b Node) Node { return p.ITE(a, b, p.Not(b)) }

// Diff returns a ∧ ¬b.
func (p *Pool) Diff(a, b Node) Node { return p.ITE(b, False, a) }

// AndN folds And over its arguments; AndN() == True.
func (p *Pool) AndN(ns ...Node) Node {
	r := True
	for _, n := range ns {
		r = p.And(r, n)
		if r == False {
			return False
		}
	}
	return r
}

// OrN folds Or over its arguments; OrN() == False.
func (p *Pool) OrN(ns ...Node) Node {
	r := False
	for _, n := range ns {
		r = p.Or(r, n)
		if r == True {
			return True
		}
	}
	return r
}

// nodeMemo is a per-call memo table indexed by node handle. Results are
// stored shifted by one so the zero value means "unset" and the make()
// memclr replaces an explicit sentinel fill. Only nodes reachable from the
// operation's input are memoized, and those all exist when the memo is
// allocated, so handles created mid-operation never index the memo.
type nodeMemo []Node

func newNodeMemo(p *Pool) nodeMemo { return make(nodeMemo, len(p.nodes)) }

func (m nodeMemo) get(n Node) (Node, bool) {
	v := m[n]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

func (m nodeMemo) put(n, r Node) { m[n] = r + 1 }

// Exists existentially quantifies the variables whose levels are in vars.
func (p *Pool) Exists(f Node, vars []int) Node {
	if len(vars) == 0 || f == True || f == False {
		return f
	}
	set := make([]bool, p.numVars)
	for _, v := range vars {
		if v >= 0 && v < len(set) {
			set[v] = true
		}
	}
	memo := newNodeMemo(p)
	var rec func(n Node) Node
	rec = func(n Node) Node {
		if n == True || n == False {
			return n
		}
		if r, ok := memo.get(n); ok {
			return r
		}
		nd := p.nodes[n]
		lo := rec(nd.lo)
		hi := rec(nd.hi)
		var r Node
		if set[nd.level] {
			r = p.Or(lo, hi)
		} else {
			r = p.mk(nd.level, lo, hi)
		}
		memo.put(n, r)
		return r
	}
	return rec(f)
}

// Restrict substitutes constant values for variables: assignment maps a
// variable level to its value.
func (p *Pool) Restrict(f Node, assignment map[int]bool) Node {
	if len(assignment) == 0 || f == True || f == False {
		return f
	}
	// values[level]: 0 unconstrained, 1 false, 2 true.
	values := make([]uint8, p.numVars)
	for v, b := range assignment {
		if v < 0 || v >= len(values) {
			continue
		}
		if b {
			values[v] = 2
		} else {
			values[v] = 1
		}
	}
	memo := newNodeMemo(p)
	var rec func(n Node) Node
	rec = func(n Node) Node {
		if n == True || n == False {
			return n
		}
		if r, ok := memo.get(n); ok {
			return r
		}
		nd := p.nodes[n]
		var r Node
		switch values[nd.level] {
		case 2:
			r = rec(nd.hi)
		case 1:
			r = rec(nd.lo)
		default:
			r = p.mk(nd.level, rec(nd.lo), rec(nd.hi))
		}
		memo.put(n, r)
		return r
	}
	return rec(f)
}

// Eval evaluates f under a total assignment: value[level] gives each
// variable's value. Levels absent from the slice range are treated as false.
func (p *Pool) Eval(f Node, value []bool) bool {
	n := f
	for n != True && n != False {
		nd := p.nodes[n]
		if int(nd.level) < len(value) && value[nd.level] {
			n = nd.hi
		} else {
			n = nd.lo
		}
	}
	return n == True
}

// AnySat returns one satisfying partial assignment of f (variable level →
// value). Variables not present in the map are don't-cares. ok is false iff
// f is unsatisfiable.
func (p *Pool) AnySat(f Node) (assignment map[int]bool, ok bool) {
	if f == False {
		return nil, false
	}
	assignment = make(map[int]bool)
	n := f
	for n != True {
		nd := p.nodes[n]
		if nd.lo != False {
			assignment[int(nd.level)] = false
			n = nd.lo
		} else {
			assignment[int(nd.level)] = true
			n = nd.hi
		}
	}
	return assignment, true
}

// SatCount returns the number of total assignments over the pool's universe
// satisfying f. Per-node sub-counts are memoized on the pool across calls
// (nodes are immutable), so a count pays only for nodes no earlier count
// visited. The ambiguity meter relies on it: a cached pool sees the same
// probe regions update after update, and with a per-call memo instead the
// http-dialogue benchmark workload allocated 10–17% more per update
// (DESIGN §15).
func (p *Pool) SatCount(f Node) *big.Int {
	if n := len(p.nodes); len(p.satMemo) < n {
		if cap(p.satMemo) >= n {
			p.satMemo = p.satMemo[:n]
		} else {
			grown := make([]*big.Int, n, 2*n)
			copy(grown, p.satMemo)
			p.satMemo = grown
		}
	}
	memo := p.satMemo
	var rec func(n Node) *big.Int // count over variables strictly below n's level
	rec = func(n Node) *big.Int {
		if n == False {
			return big.NewInt(0)
		}
		if n == True {
			return big.NewInt(1)
		}
		if c := memo[n]; c != nil {
			return c
		}
		nd := p.nodes[n]
		lo := new(big.Int).Mul(rec(nd.lo), pow2(int(p.gapBelow(nd.lo, nd.level)))) // weight skipped levels
		hi := new(big.Int).Mul(rec(nd.hi), pow2(int(p.gapBelow(nd.hi, nd.level))))
		c := new(big.Int).Add(lo, hi)
		memo[n] = c
		return c
	}
	top := p.level(f)
	gap := int32(0)
	if f == True || f == False {
		gap = int32(p.numVars)
	} else {
		gap = top
	}
	return new(big.Int).Mul(rec(f), pow2(int(gap)))
}

// gapBelow counts the variable levels skipped between parentLevel and child.
func (p *Pool) gapBelow(child Node, parentLevel int32) int32 {
	childLevel := p.level(child)
	if childLevel == terminalLevel {
		childLevel = int32(p.numVars)
	}
	return childLevel - parentLevel - 1
}

func pow2(n int) *big.Int {
	if n < 0 {
		n = 0
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(n))
}

// AllSat invokes fn for each satisfying cube of f. A cube is a partial
// assignment; unmentioned variables are don't-cares. Iteration stops early if
// fn returns false. The cube map is reused across calls; callers must copy it
// to retain it.
func (p *Pool) AllSat(f Node, fn func(cube map[int]bool) bool) {
	cube := make(map[int]bool)
	var rec func(n Node) bool
	rec = func(n Node) bool {
		if n == False {
			return true
		}
		if n == True {
			return fn(cube)
		}
		nd := p.nodes[n]
		cube[int(nd.level)] = false
		if !rec(nd.lo) {
			return false
		}
		cube[int(nd.level)] = true
		if !rec(nd.hi) {
			return false
		}
		delete(cube, int(nd.level))
		return true
	}
	rec(f)
}

// Support returns the sorted levels of the variables f depends on.
func (p *Pool) Support(f Node) []int {
	seen := make([]bool, len(p.nodes))
	levels := make([]bool, p.numVars)
	var rec func(n Node)
	rec = func(n Node) {
		if n == True || n == False || seen[n] {
			return
		}
		seen[n] = true
		nd := p.nodes[n]
		levels[nd.level] = true
		rec(nd.lo)
		rec(nd.hi)
	}
	rec(f)
	var out []int
	for l, in := range levels {
		if in {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}
