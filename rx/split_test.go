package rx

import (
	"fmt"
	"slices"
	"testing"
)

// TestSplitSinksDeadUniverse bounds the product NewSplit builds from
// patterns that are not restricted to the universe. Every tuple whose
// universe state is dead shares one sink, so the product stays within a
// small factor of the one built from the restricted patterns, with the same
// classes and witnesses. Without the sink, the eight community literals grow
// it from 41 states to 4125.
func TestSplitSinksDeadUniverse(t *testing.T) {
	num := "[0-9][0-9]?[0-9]?[0-9]?[0-9]?"
	for _, c := range []struct {
		name     string
		alpha    Alphabet
		universe string
		pattern  string // one %d, filled in per pattern
		slack    float64
	}{
		{"community literals", Alphabet("0123456789:^$"), `\^` + num + `:` + num + `\$`, `.*(\^65000:%d\$).*`, 1},
		{"transit", Alphabet("0123456789 ^$"), `\^(` + num + `( ` + num + `)*)?\$`, `.*([ \^$]%d[ \^$]).*`, 1.5},
	} {
		universe := MustCompile(c.universe, c.alpha)
		var raw, restricted []*DFA
		for i := 0; i < 8; i++ {
			p := MustCompile(fmt.Sprintf(c.pattern, 64500+i), c.alpha)
			raw = append(raw, p)
			restricted = append(restricted, p.Intersect(universe))
		}
		got, ref := NewSplit(universe, raw), NewSplit(universe, restricted)
		if got.NumClasses() != ref.NumClasses() {
			t.Fatalf("%s: %d classes, restricted patterns give %d", c.name, got.NumClasses(), ref.NumClasses())
		}
		for i := 0; i < got.NumClasses(); i++ {
			if !slices.Equal(got.In(i), ref.In(i)) || got.Witness(i) != ref.Witness(i) {
				t.Fatalf("%s: class %d = (%v, %q), restricted patterns give (%v, %q)",
					c.name, i, got.In(i), got.Witness(i), ref.In(i), ref.Witness(i))
			}
		}
		if n, max := got.prod.NumStates(), int(c.slack*float64(ref.prod.NumStates())); n > max {
			t.Errorf("%s: product has %d states, want at most %d (restricted patterns: %d)",
				c.name, n, max, ref.prod.NumStates())
		}
	}
}
