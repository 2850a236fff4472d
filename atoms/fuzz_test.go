package atoms

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/rx"
)

// randomCiscoPattern draws a short Cisco-style regex from digits, the
// boundary '_', the anchors '^' and '$', '.', classes, the repetitions
// '*', '+' and '?', alternation and, for communities, ':'. Some draws do not
// compile, such as one whose "[]" opens a class that never closes.
func randomCiscoPattern(rng *rand.Rand, community bool, depth int) string {
	var sb strings.Builder
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch k := rng.Intn(10); {
		case k < 4:
			sb.WriteByte(byte('0' + rng.Intn(4)))
		case k == 4:
			sb.WriteByte("_^$"[rng.Intn(3)])
		case k == 5:
			sb.WriteByte('.')
		case k == 6:
			sb.WriteString([]string{"[0-3]", "[^1]", "[1-9]", "[]", "[02]"}[rng.Intn(5)])
		case k == 7 && depth < 2:
			sb.WriteString("(" + randomCiscoPattern(rng, community, depth+1) + "|" + randomCiscoPattern(rng, community, depth+1) + ")")
		case k == 8 && community:
			sb.WriteByte(':')
		default:
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		if rng.Intn(4) == 0 {
			sb.WriteByte("*+?"[rng.Intn(3)])
		}
	}
	return sb.String()
}

// FuzzBuildMatchesRefinement checks Build against the refinement oracle on
// 1–6 random patterns per dialect, drawn from seed. Patterns that do not
// compile are skipped. Up to three community literals join the community
// patterns at random places, and the literal carve must equal Build there.
// Each sequence is also built twice, after its proper prefixes, through one
// automaton and partition table shared by every case, as a SpaceCache's
// spaces are. The second build takes its product from the table and must
// equal a fresh Build.
func FuzzBuildMatchesRefinement(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	table := ciscorx.NewMemo()
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		for _, d := range []struct {
			name      string
			community bool
			compile   func(string) (*rx.DFA, error)
			valid     *rx.DFA
			literal   func(string) (string, bool)
			memo      func(string) (*rx.DFA, error)
			split     func([]string, []*rx.DFA) *rx.Split
			accepts   []func(string) bool // WitnessWhere side conditions to compare
		}{
			{"as-path", false, ciscorx.CompilePath, ciscorx.ValidPath(), nil, table.Path, table.PathSplit, nil},
			{"community", true, ciscorx.CompileCommunity, ciscorx.ValidCommunity(), ciscorx.CommunityLiteral, table.Community, table.CommunitySplit, []func(string) bool{decodableCommunity}},
		} {
			var patterns []string
			for i := 0; i < 1+int(n)%6; i++ {
				p := randomCiscoPattern(rng, d.community, 0)
				if _, err := d.compile(p); err == nil {
					patterns = append(patterns, p)
				}
			}
			if d.community {
				for k := rng.Intn(4); k > 0; k-- {
					patterns = slices.Insert(patterns, rng.Intn(len(patterns)+1), randomLiteral(rng))
				}
			}
			name := fmt.Sprintf("%s %q", d.name, patterns)
			checkMatchesRef(t, name, patterns, d.compile, d.valid)
			if d.community {
				checkCarveMatchesBuild(t, name, patterns)
			}

			fresh, err := Build(patterns, d.compile, d.valid)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Every proper prefix goes through the table first, so a key that
			// lost the tail of its sequence would serve a prefix's product.
			for k := 1; k < len(patterns); k++ {
				if _, err := BuildWithLiterals(patterns[:k], d.literal, d.memo, d.split); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			var built [2]*Universe
			for i := range built {
				if built[i], err = BuildWithLiterals(patterns, d.literal, d.memo, d.split); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if built[1].split != built[0].split {
				t.Fatalf("%s: the second build did not take its product from the table", name)
			}
			checkSameUniverse(t, name+" served from the table", built[1], fresh, communitySubjects(patterns), d.accepts...)
		}
	})
}
