package atoms

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/rx"
)

func buildPath(t *testing.T, patterns ...string) *Universe {
	t.Helper()
	u, err := Build(patterns, ciscorx.CompilePath, ciscorx.ValidPath())
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSinglePattern(t *testing.T) {
	u := buildPath(t, "_32$")
	if len(u.Patterns) != 1 {
		t.Fatalf("patterns = %v", u.Patterns)
	}
	// Two atoms: inside and outside _32$.
	if u.NumAtoms() != 2 {
		t.Fatalf("atoms = %d, want 2", u.NumAtoms())
	}
	in := u.MatchingAtoms(0)
	if len(in) != 1 {
		t.Fatalf("matching atoms = %v", in)
	}
	if got := u.Atoms[in[0]].Witness; got != "^32$" {
		t.Errorf("witness = %q", got)
	}
}

func TestDisjointAndOverlappingPatterns(t *testing.T) {
	// _10_ and _20_ overlap (a path can contain both).
	u := buildPath(t, "_10_", "_20_")
	// Regions: both, only-10, only-20, neither → 4.
	if u.NumAtoms() != 4 {
		t.Fatalf("atoms = %d, want 4", u.NumAtoms())
	}
	// Classification of concrete paths.
	cases := []struct {
		subject string
		in10    bool
		in20    bool
	}{
		{ciscorx.PathSubject([]uint32{10}), true, false},
		{ciscorx.PathSubject([]uint32{20}), false, true},
		{ciscorx.PathSubject([]uint32{10, 20}), true, true},
		{ciscorx.PathSubject([]uint32{30}), false, false},
	}
	for _, c := range cases {
		ai := u.Classify(c.subject)
		if ai < 0 {
			t.Fatalf("Classify(%q) = -1", c.subject)
		}
		a := u.Atoms[ai]
		if a.InLang[0] != c.in10 || a.InLang[1] != c.in20 {
			t.Errorf("Classify(%q): sig %v, want (%v,%v)", c.subject, a.InLang, c.in10, c.in20)
		}
	}
}

func TestDuplicatePatternsDeduplicated(t *testing.T) {
	u := buildPath(t, "_5$", "_5$", "_5$")
	if len(u.Patterns) != 1 || u.NumAtoms() != 2 {
		t.Fatalf("dedup failed: %d patterns, %d atoms", len(u.Patterns), u.NumAtoms())
	}
	if u.PatternIndex("_5$") != 0 || u.PatternIndex("_6$") != -1 {
		t.Error("PatternIndex wrong")
	}
}

func TestEmptyPatternSet(t *testing.T) {
	u := buildPath(t)
	if u.NumAtoms() != 1 {
		t.Fatalf("empty pattern set should yield the single universal atom, got %d", u.NumAtoms())
	}
	if u.Classify("^1 2$") != 0 {
		t.Error("every valid subject should classify into the universal atom")
	}
	if u.Classify("garbage") != -1 {
		t.Error("invalid subject should classify to -1")
	}
}

func TestSubsetPatterns(t *testing.T) {
	// ^32$ ⊂ _32$: expect atoms {^32$}, {_32$ minus ^32$}, {rest}.
	u := buildPath(t, "_32$", "^32$")
	if u.NumAtoms() != 3 {
		t.Fatalf("atoms = %d, want 3", u.NumAtoms())
	}
	exactIdx := u.Classify("^32$")
	a := u.Atoms[exactIdx]
	if !a.InLang[0] || !a.InLang[1] {
		t.Error("^32$ should be inside both patterns")
	}
	longIdx := u.Classify("^7 32$")
	b := u.Atoms[longIdx]
	if !b.InLang[0] || b.InLang[1] {
		t.Error("^7 32$ should be inside _32$ only")
	}
}

func TestCommunityUniverse(t *testing.T) {
	u, err := Build([]string{"_300:3_", "^100:[0-9]+$"}, ciscorx.CompileCommunity, ciscorx.ValidCommunity())
	if err != nil {
		t.Fatal(err)
	}
	// The two community languages are disjoint → 3 atoms.
	if u.NumAtoms() != 3 {
		t.Fatalf("atoms = %d, want 3", u.NumAtoms())
	}
	if ai := u.Classify(ciscorx.CommunitySubject("300:3")); !u.Atoms[ai].InLang[0] || u.Atoms[ai].InLang[1] {
		t.Error("300:3 classification wrong")
	}
	if ai := u.Classify(ciscorx.CommunitySubject("100:77")); u.Atoms[ai].InLang[0] || !u.Atoms[ai].InLang[1] {
		t.Error("100:77 classification wrong")
	}
}

// TestQuickPartitionProperties: atoms form a partition — every valid subject
// classifies into exactly one atom, and that atom's signature agrees with
// direct pattern matching.
func TestQuickPartitionProperties(t *testing.T) {
	patterns := []string{"_10_", "_20_", "^10_", "_30$"}
	u := buildPath(t, patterns...)
	dfas := make([]*rx.DFA, len(patterns))
	for i, p := range patterns {
		d, err := ciscorx.CompilePath(p)
		if err != nil {
			t.Fatal(err)
		}
		dfas[i] = d
	}
	atomDFAs := make([]*rx.DFA, u.NumAtoms())
	for ai := range atomDFAs {
		atomDFAs[ai] = u.split.ClassDFA(ai)
	}
	rng := rand.New(rand.NewSource(17))
	check := func() bool {
		// Random path of 0..4 ASNs drawn from a small pool to force overlaps.
		n := rng.Intn(5)
		asns := make([]uint32, n)
		var parts []string
		for i := range asns {
			asns[i] = []uint32{10, 20, 30, 5}[rng.Intn(4)]
			parts = append(parts, subjectNum(asns[i]))
		}
		subject := "^" + strings.Join(parts, " ") + "$"
		ai := u.Classify(subject)
		if ai < 0 {
			return false
		}
		// Exactly one atom contains the subject.
		count := 0
		for _, d := range atomDFAs {
			if d.Matches(subject) {
				count++
			}
		}
		if count != 1 {
			return false
		}
		// Signature agreement.
		for i, d := range dfas {
			if u.Atoms[ai].InLang[i] != d.Matches(subject) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func subjectNum(v uint32) string { return itoa(v) }

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestQuickWitnessMembership: every atom's witness matches exactly the
// patterns its signature claims.
func TestQuickWitnessMembership(t *testing.T) {
	u := buildPath(t, "_10_", "_20_", "_10 20_")
	for ai, a := range u.Atoms {
		for pi, pat := range u.Patterns {
			d, err := ciscorx.CompilePath(pat)
			if err != nil {
				t.Fatal(err)
			}
			if d.Matches(a.Witness) != a.InLang[pi] {
				t.Errorf("atom %d witness %q: pattern %q mismatch", ai, a.Witness, pat)
			}
		}
	}
}

func TestWitnessWhere(t *testing.T) {
	u := buildPath(t, "^1(0)*$")
	in := u.MatchingAtoms(0)[0]
	// Require a witness of length ≥ 5 ("^100$" ...), forcing enumeration past
	// the shortest string "^1$".
	w, ok := u.WitnessWhere(in, 10, func(s string) bool { return len(s) >= 5 })
	if !ok || !strings.HasPrefix(w, "^10") {
		t.Errorf("WitnessWhere = %q, %v", w, ok)
	}
	if _, ok := u.WitnessWhere(in, 3, func(s string) bool { return false }); ok {
		t.Error("unsatisfiable accept should fail")
	}
}

// TestValidityIntersection: atom witnesses are well-formed subjects, though
// the compiled patterns also accept malformed strings.
func TestValidityIntersection(t *testing.T) {
	u := buildPath(t, "_32$")
	if w := u.Atoms[u.MatchingAtoms(0)[0]].Witness; w != "^32$" {
		t.Errorf("shortest witness = %q, want \"^32$\"", w)
	}
	uc, err := Build([]string{"_300:3_"}, ciscorx.CompileCommunity, ciscorx.ValidCommunity())
	if err != nil {
		t.Fatal(err)
	}
	if w := uc.Atoms[uc.MatchingAtoms(0)[0]].Witness; w != "^300:3$" {
		t.Errorf("community witness = %q, want \"^300:3$\"", w)
	}
}

func TestEnumerateWitnesses(t *testing.T) {
	u := buildPath(t, "^1(0)*$")
	var got []string
	u.split.ClassDFA(u.MatchingAtoms(0)[0]).EnumerateStrings(8, func(s string) bool {
		got = append(got, s)
		return len(got) < 3
	})
	want := []string{"^1$", "^10$", "^100$"}
	if len(got) != 3 {
		t.Fatalf("enumerated %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", got, want)
		}
	}
}
