package atoms

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/workload"
)

// randomLiteral draws a community literal in one of its four boundary forms,
// with halves from a small pool, so that draws name one subject twice and
// hit the witnesses of the regexes' classes.
func randomLiteral(rng *rand.Rand) string {
	halves := []string{"0", "1", "2", "01", "10", "100", "65000", "70000"}
	return string("_^"[rng.Intn(2)]) + halves[rng.Intn(len(halves))] + ":" +
		halves[rng.Intn(len(halves))] + string("_$"[rng.Intn(2)])
}

// checkCarveMatchesBuild builds community patterns with and without the
// literal carve and fails on any difference (checkSameUniverse). It reports
// whether the carve compiled a literal, which it does only when it falls
// back to the full product.
func checkCarveMatchesBuild(t *testing.T, name string, patterns []string) (compiledLiteral bool) {
	t.Helper()
	valid := ciscorx.ValidCommunity()
	want, err := Build(patterns, ciscorx.CompileCommunity, valid)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	compile := func(p string) (*rx.DFA, error) {
		if _, ok := ciscorx.CommunityLiteral(p); ok {
			compiledLiteral = true
		}
		return ciscorx.CompileCommunity(p)
	}
	got, err := BuildWithLiterals(patterns, ciscorx.CommunityLiteral, compile, freshSplit(valid))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkSameUniverse(t, name, got, want, communitySubjects(patterns), decodableCommunity)
	return compiledLiteral
}

// decodableCommunity accepts the community subjects whose halves fit in 16
// bits.
func decodableCommunity(s string) bool {
	var hi, lo uint32
	_, err := fmt.Sscanf(s, "^%d:%d$", &hi, &lo)
	return err == nil && hi <= 0xffff && lo <= 0xffff
}

// freshSplit multiplies valid with the automata on every call, as Build
// does.
func freshSplit(valid *rx.DFA) func([]string, []*rx.DFA) *rx.Split {
	return func(_ []string, dfas []*rx.DFA) *rx.Split { return rx.NewSplit(valid, dfas) }
}

// communitySubjects are Classify probes for community patterns: edge cases,
// and each literal's subject with its neighbours.
func communitySubjects(patterns []string) []string {
	subjects := []string{"", "^", "^$", "garbage", "^0:0$", "^1:1$", "^01:1$", "^65000:100$", "^70000:1$"}
	for _, p := range patterns {
		if s, ok := ciscorx.CommunityLiteral(p); ok {
			subjects = append(subjects, s, s[:len(s)-1]+"0$", "^1"+s[1:])
		}
	}
	return subjects
}

// checkSameUniverse fails on any difference between got and want in
// Patterns, atom order, InLang, Witness, WitnessWhere under each of accepts
// and under "not the stored witness", or Classify of the given subjects, of
// each atom's witness and its neighbours, and of the short members of each
// atom.
func checkSameUniverse(t *testing.T, name string, got, want *Universe, subjects []string, accepts ...func(string) bool) {
	t.Helper()
	if !slices.Equal(got.Patterns, want.Patterns) {
		t.Fatalf("%s: Patterns = %q, want %q", name, got.Patterns, want.Patterns)
	}
	if len(got.Atoms) != len(want.Atoms) {
		t.Fatalf("%s: %d atoms, Build has %d", name, len(got.Atoms), len(want.Atoms))
	}
	for ai, a := range want.Atoms {
		g := got.Atoms[ai]
		if !slices.Equal(g.InLang, a.InLang) || g.Witness != a.Witness {
			t.Fatalf("%s: atom %d = (%v, %q), Build (%v, %q)", name, ai, g.InLang, g.Witness, a.InLang, a.Witness)
		}
		w := a.Witness
		subjects = append(subjects, w, w[:len(w)-1]+"0$", w[:1]+"1"+w[1:])
		for _, accept := range append(accepts, func(s string) bool { return s != w }) {
			gs, gok := got.WitnessWhere(ai, len(w)+2, accept)
			ws, wok := want.WitnessWhere(ai, len(w)+2, accept)
			if gs != ws || gok != wok {
				t.Fatalf("%s: WitnessWhere(%d) = %q %v, Build %q %v", name, ai, gs, gok, ws, wok)
			}
		}
		want.split.ClassDFA(ai).EnumerateStrings(len(w)+1, func(s string) bool {
			subjects = append(subjects, s)
			return true
		})
	}
	for _, s := range subjects {
		if g, w := got.Classify(s), want.Classify(s); g != w {
			t.Fatalf("%s: Classify(%q) = %d, Build %d", name, s, g, w)
		}
	}
}

// TestBuildWithLiteralsMatchesBuild checks the literal carve against Build on
// the community sets of both corpora, each grown by one fresh literal, on 200
// literals, and on cases at the edges of what a literal is. Only a carve that
// meets its class's witness may compile a literal.
func TestBuildWithLiteralsMatchesBuild(t *testing.T) {
	for _, c := range []*workload.Corpus{workload.Cloud(1, 10, 140), workload.Campus(1, 10, 30)} {
		for i, cfg := range c.RouteMapConfigs {
			_, comm := routeMapPatterns(cfg)
			name := fmt.Sprintf("%s RM%d community+fresh", c.Name, i)
			if checkCarveMatchesBuild(t, name, append(comm, "^64999:777$")) {
				t.Errorf("%s: compiled a literal", name)
			}
		}
	}
	for _, c := range []struct {
		name     string
		patterns []string
		fallback bool
	}{
		{"literals-200", communityLiterals(200), false},
		{"_C_ beside ^C$", []string{"_65000:1_", "^65000:1$", "_65000:.*"}, false},
		{"one subject four ways", []string{"_2:2$", "^2:2_", "_2:2_", "^2:2$"}, false},
		{"class carved empty", []string{"_65000:10[01]_", "_65000:100_", "_65000:101_"}, true},
		{"universe witness carved", []string{"^0:0$", "_1:1_"}, true},
		{"undecodable literal", []string{"^70000:1$", "_65000:1_"}, false},
		{"leading zero", []string{"_01:1_", "^1:1$", "_[01]+:1_"}, false},
		{"near-literals", []string{"_1:1", "1:1_", "_123456:1_", "_1:1_2", "_2:2_"}, false},
	} {
		if got := checkCarveMatchesBuild(t, c.name, c.patterns); got != c.fallback {
			t.Errorf("%s: compiled a literal = %v, want %v", c.name, got, c.fallback)
		}
	}
}
