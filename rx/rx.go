// Package rx implements a small regular-expression engine compiled to
// deterministic finite automata over an explicit byte alphabet.
//
// It exists to give the symbolic analyses exact language-theoretic operations
// that backtracking regexp engines cannot provide: intersection, complement,
// emptiness, language equivalence and shortest-witness extraction. These are
// required to compute atomic predicates over the community and AS-path
// regexes appearing in route maps (see internal/atoms) and to generate the
// concrete differential examples shown to users.
//
// The supported syntax is the POSIX-ish subset used by Cisco IOS as-path and
// expanded community lists: literals, '.', character classes '[...]' (with
// ranges and '^' negation), grouping '(...)', alternation '|', and the
// repetitions '*', '+', '?'. Anchors and the '_' boundary metacharacter are
// handled by the caller (internal/atoms) by translating them into ordinary
// alphabet symbols before compilation, so this package treats every pattern
// as a full match over its alphabet.
package rx

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Alphabet is the ordered set of byte symbols an automaton ranges over.
type Alphabet []byte

// Contains reports whether b is a symbol of the alphabet.
func (a Alphabet) Contains(b byte) bool {
	for _, s := range a {
		if s == b {
			return true
		}
	}
	return false
}

// clone returns a sorted copy with duplicates removed.
func (a Alphabet) clone() Alphabet {
	seen := [256]bool{}
	out := make(Alphabet, 0, len(a))
	for _, b := range a {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------- AST ----------

type exprKind int

const (
	exprEmpty exprKind = iota // ε
	exprClass                 // one symbol from a set
	exprConcat
	exprAlt
	exprStar
	exprPlus
	exprOpt
)

type expr struct {
	kind  exprKind
	class [256 / 64]uint64 // symbol bitmap for exprClass
	subs  []*expr
}

func (e *expr) classAdd(b byte) { e.class[b/64] |= 1 << (b % 64) }

// ---------- Parser ----------

type parser struct {
	pat string
	pos int
}

// SyntaxError reports a malformed pattern.
type SyntaxError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rx: %s at position %d in %q", e.Msg, e.Pos, e.Pattern)
}

func (p *parser) fail(msg string) error {
	return &SyntaxError{Pattern: p.pat, Pos: p.pos, Msg: msg}
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.pat) {
		return 0, false
	}
	return p.pat[p.pos], true
}

func (p *parser) parseAlt() (*expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []*expr{first}
	for {
		c, ok := p.peek()
		if !ok || c != '|' {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return &expr{kind: exprAlt, subs: alts}, nil
}

func (p *parser) parseConcat() (*expr, error) {
	var parts []*expr
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
	}
	switch len(parts) {
	case 0:
		return &expr{kind: exprEmpty}, nil
	case 1:
		return parts[0], nil
	}
	return &expr{kind: exprConcat, subs: parts}, nil
}

func (p *parser) parseRepeat() (*expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok {
			return atom, nil
		}
		switch c {
		case '*':
			p.pos++
			atom = &expr{kind: exprStar, subs: []*expr{atom}}
		case '+':
			p.pos++
			atom = &expr{kind: exprPlus, subs: []*expr{atom}}
		case '?':
			p.pos++
			atom = &expr{kind: exprOpt, subs: []*expr{atom}}
		default:
			return atom, nil
		}
	}
}

func (p *parser) parseAtom() (*expr, error) {
	c, ok := p.peek()
	if !ok {
		return nil, p.fail("unexpected end of pattern")
	}
	switch c {
	case '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if c, ok := p.peek(); !ok || c != ')' {
			return nil, p.fail("missing ')'")
		}
		p.pos++
		return inner, nil
	case ')':
		return nil, p.fail("unexpected ')'")
	case '[':
		return p.parseClass()
	case '*', '+', '?':
		return nil, p.fail("repetition with no operand")
	case '.':
		p.pos++
		e := &expr{kind: exprClass}
		for i := 0; i < 256; i++ {
			e.classAdd(byte(i))
		}
		return e, nil
	case '\\':
		p.pos++
		c, ok := p.peek()
		if !ok {
			return nil, p.fail("trailing backslash")
		}
		p.pos++
		e := &expr{kind: exprClass}
		e.classAdd(c)
		return e, nil
	default:
		p.pos++
		e := &expr{kind: exprClass}
		e.classAdd(c)
		return e, nil
	}
}

func (p *parser) parseClass() (*expr, error) {
	p.pos++ // consume '['
	e := &expr{kind: exprClass}
	negate := false
	if c, ok := p.peek(); ok && c == '^' {
		negate = true
		p.pos++
	}
	seenAny := false
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.fail("missing ']'")
		}
		if c == ']' && seenAny {
			p.pos++
			break
		}
		p.pos++
		if c == '\\' {
			esc, ok := p.peek()
			if !ok {
				return nil, p.fail("trailing backslash in class")
			}
			p.pos++
			c = esc
		}
		// Range?
		if n, ok := p.peek(); ok && n == '-' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, _ := p.peek()
			p.pos++
			if hi < c {
				return nil, p.fail("invalid class range")
			}
			for b := int(c); b <= int(hi); b++ {
				e.classAdd(byte(b))
			}
		} else {
			e.classAdd(c)
		}
		seenAny = true
	}
	if negate {
		for i := range e.class {
			e.class[i] = ^e.class[i]
		}
	}
	return e, nil
}

// ---------- NFA (Thompson construction) ----------

type nfaState struct {
	eps  []int
	sym  [256 / 64]uint64 // symbols labelling the single out-transition
	next int              // -1 if none
}

type nfa struct {
	states []nfaState
	start  int
	accept int
}

func (n *nfa) add() int {
	n.states = append(n.states, nfaState{next: -1})
	return len(n.states) - 1
}

func buildNFA(e *expr) *nfa {
	n := &nfa{}
	start, accept := n.build(e)
	n.start, n.accept = start, accept
	return n
}

// build returns (start, accept) fragment states.
func (n *nfa) build(e *expr) (int, int) {
	switch e.kind {
	case exprEmpty:
		s := n.add()
		a := n.add()
		n.states[s].eps = append(n.states[s].eps, a)
		return s, a
	case exprClass:
		s := n.add()
		a := n.add()
		n.states[s].sym = e.class
		n.states[s].next = a
		return s, a
	case exprConcat:
		s, a := n.build(e.subs[0])
		for _, sub := range e.subs[1:] {
			s2, a2 := n.build(sub)
			n.states[a].eps = append(n.states[a].eps, s2)
			a = a2
		}
		return s, a
	case exprAlt:
		s := n.add()
		a := n.add()
		for _, sub := range e.subs {
			s2, a2 := n.build(sub)
			n.states[s].eps = append(n.states[s].eps, s2)
			n.states[a2].eps = append(n.states[a2].eps, a)
		}
		return s, a
	case exprStar:
		s := n.add()
		a := n.add()
		s2, a2 := n.build(e.subs[0])
		n.states[s].eps = append(n.states[s].eps, s2, a)
		n.states[a2].eps = append(n.states[a2].eps, s2, a)
		return s, a
	case exprPlus:
		s2, a2 := n.build(e.subs[0])
		a := n.add()
		n.states[a2].eps = append(n.states[a2].eps, s2, a)
		return s2, a
	case exprOpt:
		s := n.add()
		a := n.add()
		s2, a2 := n.build(e.subs[0])
		n.states[s].eps = append(n.states[s].eps, s2, a)
		n.states[a2].eps = append(n.states[a2].eps, a)
		return s, a
	}
	panic("rx: unknown expr kind")
}

// ---------- DFA ----------

// DFA is a total deterministic automaton over a fixed alphabet. State 0 need
// not be the dead state; totality is guaranteed by construction (a dead state
// is materialized whenever needed).
type DFA struct {
	alphabet Alphabet
	symIndex [256]int16 // byte → alphabet index, -1 if outside
	trans    [][]int32  // trans[state][symIdx]
	accept   []bool
	start    int32
}

// NumStates reports the automaton's state count.
func (d *DFA) NumStates() int { return len(d.trans) }

// Compile parses pattern and compiles it to a minimal DFA over alpha. The
// pattern must match the entire input string (full-match semantics). Symbols
// in the pattern outside the alphabet produce transitions that can never fire
// and therefore an automaton that rejects the corresponding strings.
func Compile(pattern string, alpha Alphabet) (*DFA, error) {
	p := &parser{pat: pattern}
	e, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.pat) {
		return nil, p.fail("unexpected trailing input")
	}
	d := determinize(buildNFA(e), alpha.clone())
	return d.Minimize(), nil
}

// MustCompile is Compile that panics on error; for statically known patterns.
func MustCompile(pattern string, alpha Alphabet) *DFA {
	d, err := Compile(pattern, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// determinize is the subset construction, run once per uncached pattern.
// NFA state sets are bitsets of words 64-bit words and each NFA state's
// ε-closure is computed once, so a successor set is a union of closures and
// is interned by its words without sorting or per-set maps.
func determinize(n *nfa, alpha Alphabet) *DFA {
	d := &DFA{alphabet: alpha}
	for i := range d.symIndex {
		d.symIndex[i] = -1
	}
	for i, b := range alpha {
		d.symIndex[b] = int16(i)
	}

	words := (len(n.states) + 63) / 64
	closure := make([]uint64, len(n.states)*words) // stride words
	var stack []int
	for s := range n.states {
		c := closure[s*words : (s+1)*words]
		c[s/64] |= 1 << (s % 64)
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range n.states[q].eps {
				if c[t/64]>>(t%64)&1 == 0 {
					c[t/64] |= 1 << (t % 64)
					stack = append(stack, t)
				}
			}
		}
	}

	var sets []uint64 // discovered subsets, stride words
	var trans []int32 // flat, stride len(alpha)
	var index internTable[uint64]
	mk := func(set []uint64) int32 {
		id, fresh := index.intern(&sets, set)
		if fresh {
			trans = append(trans, make([]int32, len(alpha))...)
			d.accept = append(d.accept, set[n.accept/64]>>(n.accept%64)&1 == 1)
		}
		return id
	}
	d.start = mk(closure[n.start*words : (n.start+1)*words])
	next := make([]uint64, words)
	for work := 0; work < len(d.accept); work++ {
		for ai, b := range alpha {
			clear(next)
			for wi, w := range sets[work*words : (work+1)*words] {
				for ; w != 0; w &= w - 1 {
					st := &n.states[wi*64+bits.TrailingZeros64(w)]
					if st.next >= 0 && st.sym[b/64]>>(b%64)&1 == 1 {
						for i, c := range closure[st.next*words : (st.next+1)*words] {
							next[i] |= c
						}
					}
				}
			}
			trans[work*len(alpha)+ai] = mk(next)
		}
	}
	d.trans = make([][]int32, len(d.accept))
	for s := range d.trans {
		d.trans[s] = trans[s*len(alpha) : (s+1)*len(alpha) : (s+1)*len(alpha)]
	}
	return d
}

// Matches reports whether the automaton accepts s in full. Any byte of s
// outside the alphabet causes a rejection.
func (d *DFA) Matches(s string) bool {
	st := d.start
	for i := 0; i < len(s); i++ {
		si := d.symIndex[s[i]]
		if si < 0 {
			return false
		}
		st = d.trans[st][si]
	}
	return d.accept[st]
}

// IsEmpty reports whether the accepted language is empty.
func (d *DFA) IsEmpty() bool {
	_, ok := d.ShortestString()
	return !ok
}

// ShortestString returns a shortest accepted string via BFS; ok is false when
// the language is empty.
func (d *DFA) ShortestString() (string, bool) {
	type prev struct {
		state int32
		sym   byte
	}
	back := make(map[int32]prev)
	visited := make([]bool, len(d.trans))
	queue := []int32{d.start}
	visited[d.start] = true
	var goal int32 = -1
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if d.accept[s] {
			goal = s
			break
		}
		for ai, b := range d.alphabet {
			t := d.trans[s][ai]
			if !visited[t] {
				visited[t] = true
				back[t] = prev{state: s, sym: b}
				queue = append(queue, t)
			}
		}
	}
	if goal < 0 {
		return "", false
	}
	var rev []byte
	for s := goal; s != d.start; {
		p := back[s]
		rev = append(rev, p.sym)
		s = p.state
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return string(rev), true
}

// sameAlphabet panics unless the two automata range over identical alphabets;
// product constructions are only defined there.
func (d *DFA) sameAlphabet(o *DFA) {
	if len(d.alphabet) != len(o.alphabet) {
		panic("rx: alphabet mismatch")
	}
	for i := range d.alphabet {
		if d.alphabet[i] != o.alphabet[i] {
			panic("rx: alphabet mismatch")
		}
	}
}

func (d *DFA) product(o *DFA, acc func(a, b bool) bool) *DFA {
	d.sameAlphabet(o)
	out := &DFA{alphabet: d.alphabet, symIndex: d.symIndex}
	type pair struct{ a, b int32 }
	idx := map[pair]int32{}
	var pairs []pair
	mk := func(p pair) int32 {
		if id, ok := idx[p]; ok {
			return id
		}
		id := int32(len(pairs))
		idx[p] = id
		pairs = append(pairs, p)
		out.trans = append(out.trans, make([]int32, len(d.alphabet)))
		out.accept = append(out.accept, acc(d.accept[p.a], o.accept[p.b]))
		return id
	}
	out.start = mk(pair{d.start, o.start})
	for w := int32(0); int(w) < len(pairs); w++ {
		p := pairs[w]
		for ai := range d.alphabet {
			out.trans[w][ai] = mk(pair{d.trans[p.a][ai], o.trans[p.b][ai]})
		}
	}
	return out.Minimize()
}

// Intersect returns an automaton for L(d) ∩ L(o).
func (d *DFA) Intersect(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a && b }) }

// Union returns an automaton for L(d) ∪ L(o).
func (d *DFA) Union(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a || b }) }

// Minus returns an automaton for L(d) \ L(o).
func (d *DFA) Minus(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a && !b }) }

// Complement returns an automaton for Σ* \ L(d) over d's alphabet.
func (d *DFA) Complement() *DFA {
	out := &DFA{
		alphabet: d.alphabet,
		symIndex: d.symIndex,
		trans:    d.trans, // transitions shared; accept flags flipped
		accept:   make([]bool, len(d.accept)),
		start:    d.start,
	}
	for i, a := range d.accept {
		out.accept[i] = !a
	}
	return out.Minimize()
}

// Equal reports language equality.
func (d *DFA) Equal(o *DFA) bool {
	return d.Minus(o).IsEmpty() && o.Minus(d).IsEmpty()
}

// Subset reports whether L(d) ⊆ L(o).
func (d *DFA) Subset(o *DFA) bool { return d.Minus(o).IsEmpty() }

// Minimize returns the Moore-minimized automaton (reachable states only).
func (d *DFA) Minimize() *DFA {
	nsym := len(d.alphabet)
	ns := len(d.trans)
	// Reachability.
	reach := make([]bool, ns)
	queue := []int32{d.start}
	reach[d.start] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for ai := 0; ai < nsym; ai++ {
			t := d.trans[s][ai]
			if !reach[t] {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	// Initial partition: accept vs non-accept.
	part := make([]int32, ns)
	for i := range part {
		if d.accept[i] {
			part[i] = 1
		}
	}
	numBlocks := int32(2)
	// Each refinement round distinguishes states by (current block,
	// successor blocks): a round numbers the signatures of the reachable
	// states in state order. The signatures, the next partition and the
	// table are allocated once and reused by every round.
	next := make([]int32, ns)
	sig := make([]int32, nsym+1)
	var sigs []int32 // this round's distinct signatures, stride nsym+1
	var index internTable[int32]
	for {
		index.reset()
		sigs = sigs[:0]
		for s := 0; s < ns; s++ {
			if !reach[s] {
				continue
			}
			sig[0] = part[s]
			for ai, t := range d.trans[s] {
				sig[1+ai] = part[t]
			}
			next[s], _ = index.intern(&sigs, sig)
		}
		// Unreachable states keep stale blocks; no reachable state leads
		// to one, so they are never read.
		part, next = next, part
		if index.n == numBlocks {
			break
		}
		numBlocks = index.n
	}
	out := &DFA{alphabet: d.alphabet, symIndex: d.symIndex}
	out.trans = make([][]int32, numBlocks)
	out.accept = make([]bool, numBlocks)
	rows := make([]int32, int(numBlocks)*nsym)
	for s := 0; s < ns; s++ {
		if !reach[s] {
			continue
		}
		b := part[s]
		if out.trans[b] != nil {
			continue
		}
		row := rows[int(b)*nsym : int(b+1)*nsym : int(b+1)*nsym]
		for ai, t := range d.trans[s] {
			row[ai] = part[t]
		}
		out.trans[b] = row
		out.accept[b] = d.accept[s]
	}
	// Block ids are assigned densely over reachable states, so every block
	// has a row.
	out.start = part[d.start]
	return out
}

// Universal returns the automaton accepting Σ* over alpha.
func Universal(alpha Alphabet) *DFA {
	return MustCompile(allOf(alpha)+"*", alpha)
}

// EmptyLang returns the automaton accepting nothing over alpha.
func EmptyLang(alpha Alphabet) *DFA {
	return Universal(alpha).Complement()
}

func allOf(alpha Alphabet) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for _, b := range alpha.clone() {
		switch b {
		case ']', '\\', '^', '-':
			sb.WriteByte('\\')
		}
		sb.WriteByte(b)
	}
	sb.WriteByte(']')
	return sb.String()
}
