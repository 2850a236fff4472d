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
	"slices"

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
	// split partitions valid by the compiled patterns. Each of its classes,
	// less the literal subjects carved out of it, is one atom; each carved
	// subject is an atom of its own.
	split  *rx.Split
	atomOf []int32        // split class → atom
	carved map[string]int // carved subject → atom
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
	return BuildWithLiterals(patterns, nil, compile, func(_ []string, dfas []*rx.DFA) *rx.Split {
		return rx.NewSplit(valid, dfas)
	})
}

// BuildWithLiterals is Build for pattern sets holding literals: patterns
// whose language holds exactly one member of the universe, which literal
// returns (a nil literal recognises none). A literal is not compiled. The
// product runs over the other patterns, and each distinct literal subject is
// carved out of the class holding it as an atom of its own.
//
// split takes the product: it returns rx.NewSplit of the universe with dfas,
// the automata of patterns in order. A caller that builds many universes
// passes a table (ciscorx.Memo.PathSplit and CommunitySplit), so spaces
// whose compiled patterns repeat an earlier sequence share its product. The
// literal carve still runs for each universe, and copies what it changes.
//
// The result is Build's on the same patterns. Build's product gives each
// literal subject a singleton atom, whose vector is its class's with the
// columns of the literals naming it set. The rest of the class keeps the
// class's vector and, unless the witness was carved, its witness. The atoms
// are then sorted by vector as rx.NewSplit sorts its classes. When a subject
// is its class's witness, what is left of the class would need a new
// witness, so the literals are compiled and Build's product is taken
// instead.
func BuildWithLiterals(patterns []string, literal func(string) (string, bool), compile func(string) (*rx.DFA, error), split func(patterns []string, dfas []*rx.DFA) *rx.Split) (*Universe, error) {
	u := &Universe{index: map[string]int{}}
	dfas := make([]*rx.DFA, 0, len(patterns))    // by position in Patterns; nil for a literal
	subjects := make([]string, 0, len(patterns)) // by position in Patterns; "" unless a literal
	for _, p := range patterns {
		if _, dup := u.index[p]; dup {
			continue
		}
		u.index[p] = len(u.Patterns)
		u.Patterns = append(u.Patterns, p)
		s, ok := "", false
		if literal != nil {
			s, ok = literal(p)
		}
		var d *rx.DFA
		if !ok {
			var err error
			if d, err = compile(p); err != nil {
				return nil, fmt.Errorf("atoms: %w", err)
			}
		}
		dfas = append(dfas, d)
		subjects = append(subjects, s)
	}
	if u.carve(split, dfas, subjects) {
		return u, nil
	}
	for i, d := range dfas {
		if d == nil {
			var err error
			if dfas[i], err = compile(u.Patterns[i]); err != nil {
				return nil, fmt.Errorf("atoms: %w", err)
			}
		}
	}
	u.carve(split, dfas, nil) // with nothing to carve it cannot fail
	return u, nil
}

// carve sets u's atoms: the classes of the product of the universe with the
// compiled patterns, with the subject of each literal (a pattern whose dfas
// entry is nil) carved out as an atom of its own. It reports false, setting
// nothing, when a subject lies outside the universe or is its class's
// witness.
func (u *Universe) carve(product func([]string, []*rx.DFA) *rx.Split, dfas []*rx.DFA, subjects []string) bool {
	cols := make([]int, 0, len(dfas)) // split column → position in Patterns
	compiled := make([]*rx.DFA, 0, len(dfas))
	names := make([]string, 0, len(dfas))
	for i, d := range dfas {
		if d != nil {
			cols = append(cols, i)
			compiled = append(compiled, d)
			names = append(names, u.Patterns[i])
		}
	}
	split := product(names, compiled)

	// One atom per class of the split, then one per distinct subject.
	type entry struct {
		Atom
		class int32 // split class, or -1 for a carved subject
	}
	entries := make([]entry, split.NumClasses())
	for c := range entries {
		in := split.In(c)
		if len(cols) < len(dfas) {
			in = make([]bool, len(dfas))
			for j, i := range cols {
				in[i] = split.In(c)[j]
			}
		}
		entries[c] = entry{Atom{InLang: in, Witness: split.Witness(c)}, int32(c)}
	}
	var carved map[string]int
	for i, s := range subjects {
		if dfas[i] != nil {
			continue
		}
		e, ok := carved[s]
		if !ok {
			c := split.ClassOf(s)
			if c < 0 || entries[c].Witness == s {
				return false
			}
			if carved == nil {
				carved = map[string]int{}
			}
			e = len(entries)
			carved[s] = e
			entries = append(entries, entry{Atom{InLang: slices.Clone(entries[c].InLang), Witness: s}, -1})
		}
		entries[e].InLang[i] = true
	}
	if carved != nil {
		slices.SortFunc(entries, func(x, y entry) int { return rx.CompareVectors(x.InLang, y.InLang) })
	}

	u.split, u.carved = split, carved
	u.Atoms = make([]Atom, len(entries))
	u.atomOf = make([]int32, split.NumClasses())
	for a, e := range entries {
		u.Atoms[a] = e.Atom
		if e.class >= 0 {
			u.atomOf[e.class] = int32(a)
		} else {
			carved[e.Witness] = a
		}
	}
	return true
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
func (u *Universe) Classify(subject string) int {
	if a, ok := u.carved[subject]; ok {
		return a
	}
	c := u.split.ClassOf(subject)
	if c < 0 {
		return -1
	}
	return int(u.atomOf[c])
}

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
	if _, ok := u.carved[a.Witness]; ok { // a carved subject, its atom's one member
		return "", false
	}
	// No class keeps a carved witness, so the witness names the atom's class.
	// The enumeration keeps one string per state and length, so it must walk
	// the atom's own minimal automaton: the class's, less what was carved.
	c := u.split.ClassOf(a.Witness)
	var carved []string
	for s := range u.carved {
		if u.split.ClassOf(s) == c {
			carved = append(carved, s)
		}
	}
	var found string
	ok := false
	u.split.ClassDFA(c, carved...).EnumerateStrings(maxLen, func(s string) bool {
		if accept(s) {
			found, ok = s, true
			return false
		}
		return true
	})
	return found, ok
}
