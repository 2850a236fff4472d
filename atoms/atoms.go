// Package atoms computes atomic predicates over a set of regular expressions:
// the coarsest partition of a (regular) universe such that every input regex
// is a union of partition classes.
//
// This is the construction Batfish-style symbolic route analysis uses to
// reason about community and AS-path matching with boolean variables: each
// atom gets one BDD variable, a concrete attribute value falls in exactly one
// atom, and "value matches regex R" becomes the disjunction of the atoms
// contained in L(R).
package atoms

import (
	"fmt"

	"github.com/clarifynet/clarify/rx"
)

// Atom is one non-empty equivalence class of the partition.
type Atom struct {
	// InLang[i] reports whether the atom is contained in L(Patterns[i]).
	InLang []bool
	// Witness is a shortest member of the atom, used to decode symbolic
	// models into concrete attribute values.
	Witness string
}

// Universe is the atomic-predicate partition for one pattern set.
type Universe struct {
	// Patterns are the distinct input regexes, in first-seen order.
	Patterns []string
	// Atoms are the non-empty classes. Every string of the valid universe
	// belongs to exactly one atom.
	Atoms []Atom

	index map[string]int // pattern → position in Patterns
	split *rx.Split      // classes are the atoms, in order
}

// Build computes the partition of the language of valid under the given
// patterns. compile maps each pattern to its automaton, which may accept
// strings outside valid, as ciscorx's do: only members of valid are
// partitioned. Duplicate patterns are deduplicated.
//
// The partition is one breadth-first product of valid with every pattern
// automaton (rx.Split): each reachable product state where valid accepts
// belongs to the atom named by its vector of pattern-acceptance bits. Atoms
// are ordered by that vector, pattern by pattern with "inside" before
// "outside", and each atom's witness is its shortest, and among those
// lexicographically least, member. The cost is the number of reachable
// product states times the alphabet size times the pattern count; the atom
// count can still reach 2^n when the patterns overlap freely.
func Build(patterns []string, compile func(string) (*rx.DFA, error), valid *rx.DFA) (*Universe, error) {
	u := &Universe{index: map[string]int{}}
	var dfas []*rx.DFA
	for _, p := range patterns {
		if _, dup := u.index[p]; dup {
			continue
		}
		d, err := compile(p)
		if err != nil {
			return nil, fmt.Errorf("atoms: %w", err)
		}
		u.index[p] = len(u.Patterns)
		u.Patterns = append(u.Patterns, p)
		dfas = append(dfas, d)
	}
	u.split = rx.NewSplit(valid, dfas)
	u.Atoms = make([]Atom, u.split.NumClasses())
	for i := range u.Atoms {
		u.Atoms[i] = Atom{InLang: u.split.In(i), Witness: u.split.Witness(i)}
	}
	return u, nil
}

// NumAtoms reports the partition size.
func (u *Universe) NumAtoms() int { return len(u.Atoms) }

// PatternIndex returns the position of pattern, or -1 if it was not supplied
// to Build.
func (u *Universe) PatternIndex(pattern string) int {
	if i, ok := u.index[pattern]; ok {
		return i
	}
	return -1
}

// MatchingAtoms returns the indices of the atoms contained in
// L(Patterns[patternIdx]) — the disjuncts of the pattern's boolean encoding.
func (u *Universe) MatchingAtoms(patternIdx int) []int {
	var out []int
	for ai, a := range u.Atoms {
		if a.InLang[patternIdx] {
			out = append(out, ai)
		}
	}
	return out
}

// Classify returns the index of the atom containing subject, or -1 when the
// subject lies outside the valid universe.
func (u *Universe) Classify(subject string) int { return u.split.ClassOf(subject) }

// WitnessWhere returns a member of atom ai satisfying accept, trying the
// stored shortest witness first and then enumerating the members of the
// atom's minimal automaton up to maxLen.
// It is used when decoded values carry side conditions the automaton does
// not encode (e.g. numeric overflow of five-digit tokens).
func (u *Universe) WitnessWhere(ai int, maxLen int, accept func(string) bool) (string, bool) {
	a := u.Atoms[ai]
	if accept(a.Witness) {
		return a.Witness, true
	}
	var found string
	ok := false
	u.split.ClassDFA(ai).EnumerateStrings(maxLen, func(s string) bool {
		if accept(s) {
			found, ok = s, true
			return false
		}
		return true
	})
	return found, ok
}
