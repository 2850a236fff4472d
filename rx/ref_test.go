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

func TestDeterminizeMatchesRef(t *testing.T) {
	for _, p := range fuzzSeeds {
		checkDeterminizeMatchesRef(t, p, Alphabet("0123 :^$"))
	}
	// The sentinel dialect ciscorx compiles Cisco regexes into: '_' is
	// [ \^$], anchors are literals, and the pattern is searched as .*(R).*.
	const num = "[0-9][0-9]?[0-9]?[0-9]?[0-9]?"
	path := Alphabet("0123456789 ^$")
	for _, p := range []string{
		`.*([ \^$]65000[ \^$]).*`,
		`.*([ \^$]32\$).*`,
		`.*(\^32\$).*`,
		`.*(\^[0-9]+ 32[ \^$]).*`,
		`.*([ \^$]6450[0-9][ \^$]).*`,
		`.*(( [0-9]+)* 100[ \^$]).*`,
		`\^(` + num + `( ` + num + `)*)?\$`,
	} {
		checkDeterminizeMatchesRef(t, p, path)
	}
	comm := Alphabet("0123456789:^$")
	for _, p := range []string{
		`.*([ \^$]65000:100[ \^$]).*`,
		`.*(\^300:3\$).*`,
		`.*(\^100:[0-9]+\$).*`,
		`.*([ \^$]65000:1[0-9]*[ \^$]).*`,
		`\^` + num + `:` + num + `\$`,
	} {
		checkDeterminizeMatchesRef(t, p, comm)
	}
}
