package rx

import (
	"reflect"
	"sort"
	"testing"
)

// determinizeRef is the map-based subset construction determinize replaced:
// state sets as maps, ε-closure recomputed per set, subsets keyed by their
// sorted ids. It is the reference the bitset version must reproduce exactly.
func determinizeRef(n *nfa, alpha Alphabet) *DFA {
	d := &DFA{alphabet: alpha}
	for i := range d.symIndex {
		d.symIndex[i] = -1
	}
	for i, b := range alpha {
		d.symIndex[b] = int16(i)
	}
	closure := func(set map[int]bool) {
		var stack []int
		for s := range set {
			stack = append(stack, s)
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range n.states[s].eps {
				if !set[t] {
					set[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	key := func(set map[int]bool) string {
		ids := make([]int, 0, len(set))
		for s := range set {
			ids = append(ids, s)
		}
		sort.Ints(ids)
		buf := make([]byte, 0, len(ids)*4)
		for _, id := range ids {
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(buf)
	}
	startSet := map[int]bool{n.start: true}
	closure(startSet)
	stateIdx := map[string]int32{}
	var sets []map[int]bool
	mk := func(set map[int]bool) int32 {
		k := key(set)
		if id, ok := stateIdx[k]; ok {
			return id
		}
		id := int32(len(sets))
		stateIdx[k] = id
		sets = append(sets, set)
		d.trans = append(d.trans, make([]int32, len(alpha)))
		d.accept = append(d.accept, set[n.accept])
		return id
	}
	d.start = mk(startSet)
	for work := int32(0); int(work) < len(sets); work++ {
		cur := sets[work]
		for ai, b := range alpha {
			next := map[int]bool{}
			for s := range cur {
				st := &n.states[s]
				if st.next >= 0 && st.sym[b/64]>>(b%64)&1 == 1 {
					next[st.next] = true
				}
			}
			closure(next)
			d.trans[work][ai] = mk(next)
		}
	}
	return d
}

// checkDeterminizeMatchesRef compiles pattern's NFA and fails unless both
// subset constructions return the same transitions, accept flags and start.
// Patterns that do not parse are skipped.
func checkDeterminizeMatchesRef(t *testing.T, pattern string, alpha Alphabet) {
	t.Helper()
	p := &parser{pat: pattern}
	e, err := p.parseAlt()
	if err != nil || p.pos != len(p.pat) {
		return
	}
	n := buildNFA(e)
	got, want := determinize(n, alpha.clone()), determinizeRef(n, alpha.clone())
	if got.start != want.start || !reflect.DeepEqual(got.accept, want.accept) || !reflect.DeepEqual(got.trans, want.trans) {
		t.Fatalf("determinize(%q) differs from the map-based construction:\n got start %d accept %v trans %v\nwant start %d accept %v trans %v",
			pattern, got.start, got.accept, got.trans, want.start, want.accept, want.trans)
	}
}

// refShapes are the patterns the optimized constructions are checked
// against their references on, by alphabet: fuzzSeeds, and the sentinel
// dialect ciscorx compiles Cisco regexes into ('_' is [ \^$], anchors are
// literals, and the pattern is searched as .*(R).*).
func refShapes() map[string][]string {
	const num = "[0-9][0-9]?[0-9]?[0-9]?[0-9]?"
	return map[string][]string{
		"0123 :^$": fuzzSeeds,
		"0123456789 ^$": {
			`.*([ \^$]65000[ \^$]).*`,
			`.*([ \^$]32\$).*`,
			`.*(\^32\$).*`,
			`.*(\^[0-9]+ 32[ \^$]).*`,
			`.*([ \^$]6450[0-9][ \^$]).*`,
			`.*(( [0-9]+)* 100[ \^$]).*`,
			`\^(` + num + `( ` + num + `)*)?\$`,
		},
		"0123456789:^$": {
			`.*([ \^$]65000:100[ \^$]).*`,
			`.*(\^300:3\$).*`,
			`.*(\^100:[0-9]+\$).*`,
			`.*([ \^$]65000:1[0-9]*[ \^$]).*`,
			`\^` + num + `:` + num + `\$`,
		},
	}
}

func TestDeterminizeMatchesRef(t *testing.T) {
	for alpha, patterns := range refShapes() {
		for _, p := range patterns {
			checkDeterminizeMatchesRef(t, p, Alphabet(alpha))
		}
	}
}

// minimizeRef is the Moore refinement Minimize replaced: each round keys a
// fresh map by the little-endian bytes of every reachable state's (block,
// successor blocks) signature. It is the reference the interning version
// must reproduce exactly.
func minimizeRef(d *DFA) *DFA {
	nsym := len(d.alphabet)
	ns := len(d.trans)
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
	part := make([]int32, ns)
	for i := range part {
		if d.accept[i] {
			part[i] = 1
		}
	}
	numBlocks := int32(2)
	buf := make([]byte, 0, (nsym+1)*4)
	for {
		next := make([]int32, ns)
		index := map[string]int32{}
		var blocks int32
		for s := 0; s < ns; s++ {
			if !reach[s] {
				continue
			}
			buf = buf[:0]
			p := part[s]
			buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
			for ai := 0; ai < nsym; ai++ {
				p = part[d.trans[s][ai]]
				buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
			}
			id, ok := index[string(buf)]
			if !ok {
				id = blocks
				blocks++
				index[string(buf)] = id
			}
			next[s] = id
		}
		if blocks == numBlocks {
			part = next
			break
		}
		part, numBlocks = next, blocks
	}
	out := &DFA{alphabet: d.alphabet, symIndex: d.symIndex}
	out.trans = make([][]int32, numBlocks)
	out.accept = make([]bool, numBlocks)
	filled := make([]bool, numBlocks)
	for s := 0; s < ns; s++ {
		if !reach[s] {
			continue
		}
		b := part[s]
		if filled[b] {
			continue
		}
		filled[b] = true
		row := make([]int32, nsym)
		for ai := 0; ai < nsym; ai++ {
			row[ai] = part[d.trans[s][ai]]
		}
		out.trans[b] = row
		out.accept[b] = d.accept[s]
	}
	out.start = part[d.start]
	return out
}

// checkMinimizeMatchesRef determinizes pattern's NFA and fails unless
// Minimize and minimizeRef return the same start state, accept flags and
// transitions, on the automaton and on its complement. Patterns that do not
// parse are skipped.
func checkMinimizeMatchesRef(t *testing.T, pattern string, alpha Alphabet) {
	t.Helper()
	p := &parser{pat: pattern}
	e, err := p.parseAlt()
	if err != nil || p.pos != len(p.pat) {
		return
	}
	d := determinize(buildNFA(e), alpha.clone())
	flipped := &DFA{alphabet: d.alphabet, symIndex: d.symIndex, trans: d.trans, start: d.start, accept: make([]bool, len(d.accept))}
	for i, a := range d.accept {
		flipped.accept[i] = !a
	}
	for _, in := range []*DFA{d, flipped} {
		got, want := in.Minimize(), minimizeRef(in)
		if got.start != want.start || !reflect.DeepEqual(got.accept, want.accept) || !reflect.DeepEqual(got.trans, want.trans) {
			t.Fatalf("Minimize(%q, complement %v) differs from the map-keyed refinement:\n got start %d accept %v trans %v\nwant start %d accept %v trans %v",
				pattern, in == flipped, got.start, got.accept, got.trans, want.start, want.accept, want.trans)
		}
	}
}

func TestMinimizeMatchesRef(t *testing.T) {
	for alpha, patterns := range refShapes() {
		for _, p := range patterns {
			checkMinimizeMatchesRef(t, p, Alphabet(alpha))
		}
	}
}
