package atoms

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/workload"
)

// refRegion is one class of the reference partition.
type refRegion struct {
	dfa     *rx.DFA
	sig     []bool
	witness string
}

// buildRef is the iterative refinement Build replaced: starting from {valid},
// each pattern splits every region into its minimized intersection with and
// difference from the pattern's language, dropping empty parts. It is the
// reference the single-product partition must reproduce exactly.
func buildRef(dfas []*rx.DFA, valid *rx.DFA) []refRegion {
	regions := []refRegion{{dfa: valid, sig: []bool{}}}
	for i, d := range dfas {
		next := make([]refRegion, 0, len(regions)*2)
		for _, r := range regions {
			in := r.dfa.Intersect(d)
			out := r.dfa.Minus(d)
			if !in.IsEmpty() {
				next = append(next, refRegion{dfa: in, sig: appendSig(r.sig, i, true)})
			}
			if !out.IsEmpty() {
				next = append(next, refRegion{dfa: out, sig: appendSig(r.sig, i, false)})
			}
		}
		regions = next
	}
	out := regions[:0]
	for _, r := range regions {
		if w, ok := r.dfa.ShortestString(); ok {
			r.witness = w
			out = append(out, r)
		}
	}
	return out
}

func appendSig(sig []bool, i int, v bool) []bool {
	out := make([]bool, i+1)
	copy(out, sig)
	out[i] = v
	return out
}

// routeMapPatterns lists the as-path and community patterns a route space
// over cfg is built from, in the order the symbolic package gathers them.
func routeMapPatterns(cfg *ios.Config) (path, comm []string) {
	for _, n := range sortedNames(cfg.ASPathLists) {
		for _, e := range cfg.ASPathLists[n].Entries {
			path = append(path, e.Regex)
		}
	}
	for _, n := range sortedNames(cfg.CommunityLists) {
		l := cfg.CommunityLists[n]
		for _, e := range l.Entries {
			if l.Expanded {
				comm = append(comm, e.Values[0])
				continue
			}
			for _, lit := range e.Values {
				comm = append(comm, "^"+lit+"$")
			}
		}
	}
	for _, n := range sortedNames(cfg.RouteMaps) {
		for _, st := range cfg.RouteMaps[n].Stanzas {
			for _, set := range st.Sets {
				if sc, ok := set.(ios.SetCommunity); ok {
					for _, lit := range sc.Communities {
						comm = append(comm, "^"+lit+"$")
					}
				}
			}
		}
	}
	return path, comm
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// transitPatterns returns k "_N_" as-path patterns, the shape aged sessions
// accumulate one per transit condition.
func transitPatterns(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("_%d_", 64500+i)
	}
	return out
}

// communityLiterals returns n exact community patterns.
func communityLiterals(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("^65000:%d$", 100+i)
	}
	return out
}

// checkMatchesRef builds patterns both ways and fails on any difference in
// Patterns, atom order, InLang, Witness, the atoms' languages and minimal
// automata, Classify, or WitnessWhere.
func checkMatchesRef(t *testing.T, name string, patterns []string, compile func(string) (*rx.DFA, error), valid *rx.DFA) {
	t.Helper()
	u, err := Build(patterns, compile, valid)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seen := map[string]bool{}
	var distinct []string
	var dfas []*rx.DFA
	for _, p := range patterns {
		if seen[p] {
			continue
		}
		seen[p] = true
		distinct = append(distinct, p)
		d, err := compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dfas = append(dfas, d)
	}
	if !slices.Equal(u.Patterns, distinct) {
		t.Fatalf("%s: Patterns = %q, want %q", name, u.Patterns, distinct)
	}
	ref := buildRef(dfas, valid)
	if len(u.Atoms) != len(ref) {
		t.Fatalf("%s: %d atoms, reference has %d", name, len(u.Atoms), len(ref))
	}
	var subjects []string
	for ai, r := range ref {
		a := u.Atoms[ai]
		if !slices.Equal(a.InLang, r.sig) || a.Witness != r.witness {
			t.Fatalf("%s: atom %d = (%v, %q), reference (%v, %q)", name, ai, a.InLang, a.Witness, r.sig, r.witness)
		}
		cd := u.split.ClassDFA(ai)
		if !cd.Equal(r.dfa) || cd.NumStates() != r.dfa.NumStates() {
			t.Fatalf("%s: atom %d automaton has %d states, reference %d (equal languages: %v)",
				name, ai, cd.NumStates(), r.dfa.NumStates(), cd.Equal(r.dfa))
		}
		w := r.witness
		subjects = append(subjects, w, w[:len(w)-1], w+"0", w[:len(w)-1]+"0"+w[len(w)-1:], w[:1]+"x"+w[1:])
		if len(w) > 16 {
			continue // slow to enumerate; the automata were asserted isomorphic
		}
		// Past the stored witness, WitnessWhere enumerates the atom's
		// minimal automaton; the reference enumerates its own region.
		notWitness := func(s string) bool { return s != w }
		got, gotOK := u.WitnessWhere(ai, len(w)+2, notWitness)
		var want string
		wantOK := false
		r.dfa.EnumerateStrings(len(w)+2, func(s string) bool {
			subjects = append(subjects, s)
			if notWitness(s) {
				want, wantOK = s, true
				return false
			}
			return true
		})
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: WitnessWhere(%d) = %q %v, reference %q %v", name, ai, got, gotOK, want, wantOK)
		}
	}
	subjects = append(subjects, "", "^", "^$", "garbage", "^1 2$", "^65000:100$")
	for _, s := range subjects {
		want := -1
		for ri, r := range ref {
			if r.dfa.Matches(s) {
				want = ri
				break
			}
		}
		if got := u.Classify(s); got != want {
			t.Fatalf("%s: Classify(%q) = %d, reference %d", name, s, got, want)
		}
	}
}

// TestBuildMatchesRefinement checks Build against the refinement oracle on
// every route map of the cloud and campus corpora, on each community set
// grown by one fresh literal, on transit as-path sets and on 200 literals.
func TestBuildMatchesRefinement(t *testing.T) {
	path := func(name string, patterns []string) {
		checkMatchesRef(t, name, patterns, ciscorx.CompilePath, ciscorx.ValidPath())
	}
	comm := func(name string, patterns []string) {
		checkMatchesRef(t, name, patterns, ciscorx.CompileCommunity, ciscorx.ValidCommunity())
	}
	for _, c := range []*workload.Corpus{workload.Cloud(1, 10, 140), workload.Campus(1, 10, 30)} {
		for i, cfg := range c.RouteMapConfigs {
			name := fmt.Sprintf("%s RM%d", c.Name, i)
			p, cm := routeMapPatterns(cfg)
			path(name+" as-path", p)
			comm(name+" community", cm)
			comm(name+" community+fresh", append(cm, "^64999:777$"))
		}
	}
	for _, k := range []int{4, 6, 8} {
		path(fmt.Sprintf("transit-%d", k), transitPatterns(k))
	}
	comm("literals-200", communityLiterals(200))
}
