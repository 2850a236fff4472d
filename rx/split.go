package rx

import "slices"

// Split partitions the language of a universe automaton by a list of pattern
// automata: two members of the universe share a class exactly when every
// pattern accepts both or rejects both. Only classes with members exist.
//
// It is built as one breadth-first product of the universe with all patterns
// at once, expanding symbols in alphabet order. The first product state
// reached for a class therefore carries the class's shortest, and among those
// lexicographically least, member, which is the string ShortestString returns
// on any automaton for the class.
type Split struct {
	prod    DFA      // product automaton; its accept flags are unused
	class   []int32  // product state → class, or -1 outside the universe
	in      [][]bool // class → acceptance by each pattern
	witness []string // class → shortest, lexicographically least member
}

// NewSplit computes the partition of L(universe) by patterns. Classes are
// ordered by their acceptance vectors, compared pattern by pattern with
// "accepted" before "rejected". All automata must share one alphabet.
//
// The patterns need not be restricted to the universe. Every product tuple
// whose universe state can no longer reach acceptance is interned as one
// sink state of class -1, so the pattern automata stop expanding once the
// universe has died. A dead tuple never leads back to a class, so the sink
// changes no class, witness or ClassOf result.
func NewSplit(universe *DFA, patterns []*DFA) *Split {
	for _, p := range patterns {
		universe.sameAlphabet(p)
	}
	nsym := len(universe.alphabet)
	width := 1 + len(patterns)
	s := &Split{prod: DFA{alphabet: universe.alphabet, symIndex: universe.symIndex}}

	// Product states are tuples (universe state, pattern states...), stored
	// flat with stride width and interned by the table; classes are
	// interned by their acceptance bit vectors, stored flat with stride
	// words.
	var (
		tuples []int32
		trans  []int32 // flat, stride nsym
		parent []int32 // BFS tree, for witnesses
		via    []byte
		first  []int32 // provisional class → first product state reached
		vecs   []uint64
		index  internTable[int32]
		cindex internTable[uint64]
	)
	vec := make([]uint64, (len(patterns)+63)/64)
	live := universe.live()
	mk := func(t []int32, from int32, sym byte) int32 {
		// Every tuple whose universe state is dead is stored as all -1s and
		// so interns as one sink state. The universe's successors of a dead
		// state are dead too, so every transition out of the sink returns
		// to it.
		if !live[t[0]] {
			for i := range t {
				t[i] = -1
			}
		}
		id, fresh := index.intern(&tuples, t)
		if !fresh {
			return id
		}
		trans = append(trans, make([]int32, nsym)...)
		parent = append(parent, from)
		via = append(via, sym)
		c := int32(-1)
		if t[0] >= 0 && universe.accept[t[0]] {
			clear(vec)
			for i, p := range patterns {
				if p.accept[t[1+i]] {
					vec[i/64] |= 1 << (i % 64)
				}
			}
			var newClass bool
			if c, newClass = cindex.intern(&vecs, vec); newClass {
				first = append(first, id)
			}
		}
		s.class = append(s.class, c)
		return id
	}

	t := make([]int32, width)
	t[0] = universe.start
	for i, p := range patterns {
		t[1+i] = p.start
	}
	s.prod.start = mk(t, -1, 0)
	for q := int32(0); int(q) < len(s.class); q++ {
		if tuples[int(q)*width] < 0 { // the sink
			for ai := range nsym {
				trans[int(q)*nsym+ai] = q
			}
			continue
		}
		for ai, b := range universe.alphabet {
			cur := tuples[int(q)*width : int(q+1)*width]
			t[0] = universe.trans[cur[0]][ai]
			for i, p := range patterns {
				t[1+i] = p.trans[cur[1+i]][ai]
			}
			trans[int(q)*nsym+ai] = mk(t, q, b)
		}
	}
	s.prod.trans = make([][]int32, len(s.class))
	for q := range s.prod.trans {
		s.prod.trans[q] = trans[q*nsym : (q+1)*nsym : (q+1)*nsym]
	}

	// Renumber classes into acceptance-vector order.
	in := make([][]bool, len(first))
	for c, q := range first {
		in[c] = make([]bool, len(patterns))
		for i, p := range patterns {
			in[c][i] = p.accept[tuples[int(q)*width+1+i]]
		}
	}
	order := make([]int32, len(first))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return CompareVectors(in[x], in[y]) })
	rank := make([]int32, len(order))
	s.in = make([][]bool, len(order))
	s.witness = make([]string, len(order))
	for r, c := range order {
		rank[c] = int32(r)
		s.in[r] = in[c]
		s.witness[r] = pathTo(first[c], parent, via)
	}
	for q, c := range s.class {
		if c >= 0 {
			s.class[q] = rank[c]
		}
	}
	return s
}

// CompareVectors orders acceptance vectors as NewSplit orders its classes:
// pattern by pattern, "accepted" before "rejected".
func CompareVectors(a, b []bool) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// live reports, for each state, whether some accepting state is reachable
// from it.
func (d *DFA) live() []bool {
	live := slices.Clone(d.accept)
	for changed := true; changed; {
		changed = false
		for q, row := range d.trans {
			if !live[q] && slices.ContainsFunc(row, func(t int32) bool { return live[t] }) {
				live[q], changed = true, true
			}
		}
	}
	return live
}

// pathTo spells the BFS-tree path from the root to state q.
func pathTo(q int32, parent []int32, via []byte) string {
	var rev []byte
	for ; parent[q] >= 0; q = parent[q] {
		rev = append(rev, via[q])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return string(rev)
}

// NumClasses reports the number of classes.
func (s *Split) NumClasses() int { return len(s.in) }

// In reports, for class i, whether each pattern accepts its members. The
// slice is shared; callers must not modify it.
func (s *Split) In(i int) []bool { return s.in[i] }

// Witness returns the shortest, and among those lexicographically least,
// member of class i.
func (s *Split) Witness(i int) string { return s.witness[i] }

// ClassOf returns the class of subject, or -1 when the universe rejects it.
func (s *Split) ClassOf(subject string) int {
	q := s.prod.start
	for i := 0; i < len(subject); i++ {
		si := s.prod.symIndex[subject[i]]
		if si < 0 {
			return -1
		}
		q = s.prod.trans[q][si]
	}
	return int(s.class[q])
}

// ClassDFA returns the minimal automaton accepting exactly the members of
// class i other than the given strings.
func (s *Split) ClassDFA(i int, without ...string) *DFA {
	d := &DFA{
		alphabet: s.prod.alphabet,
		symIndex: s.prod.symIndex,
		trans:    s.prod.trans, // shared; only the accept flags differ
		accept:   make([]bool, len(s.class)),
		start:    s.prod.start,
	}
	for q, c := range s.class {
		d.accept[q] = c == int32(i)
	}
	if len(without) > 0 {
		return d.Minus(d.finite(without))
	}
	return d.Minimize()
}

// finite returns an automaton over d's alphabet accepting exactly strs: a
// trie rooted at state 1 whose missing edges lead to the dead state 0.
func (d *DFA) finite(strs []string) *DFA {
	nsym := len(d.alphabet)
	t := &DFA{
		alphabet: d.alphabet,
		symIndex: d.symIndex,
		trans:    [][]int32{make([]int32, nsym), make([]int32, nsym)},
		accept:   []bool{false, false},
		start:    1,
	}
	for _, s := range strs {
		q := t.start
		for i := 0; i < len(s); i++ {
			si := d.symIndex[s[i]]
			if si < 0 { // no automaton over the alphabet accepts s
				q = 0
				break
			}
			if t.trans[q][si] == 0 {
				t.trans[q][si] = int32(len(t.trans))
				t.trans = append(t.trans, make([]int32, nsym))
				t.accept = append(t.accept, false)
			}
			q = t.trans[q][si]
		}
		t.accept[q] = q != 0
	}
	return t
}
