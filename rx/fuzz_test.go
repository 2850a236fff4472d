package rx

import "testing"

// fuzzSeeds are FuzzCompile's seed corpus.
var fuzzSeeds = []string{
	"123", "(1|2)*3", "[0-3]+", "1?2?3?", ".*", "[^1]", "\\^1\\$",
	"((0|1)(2|3))*", "_1_", "a**", "(", "[z-a]",
}

// FuzzCompile checks that the regex compiler never panics, that its subset
// construction and its minimization match the map-based references exactly,
// and that every
// accepted pattern yields an automaton whose complement round-trips
// (¬¬L = L) and whose shortest witness, if any, is a member.
func FuzzCompile(f *testing.F) {
	alpha := Alphabet("0123 :^$")
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		if len(pattern) > 40 {
			return // keep automata small
		}
		checkDeterminizeMatchesRef(t, pattern, alpha)
		checkMinimizeMatchesRef(t, pattern, alpha)
		d, err := Compile(pattern, alpha)
		if err != nil {
			return
		}
		if !d.Complement().Complement().Equal(d) {
			t.Fatalf("double complement differs for %q", pattern)
		}
		if w, ok := d.ShortestString(); ok && !d.Matches(w) {
			t.Fatalf("shortest witness %q not a member of %q", w, pattern)
		}
	})
}
