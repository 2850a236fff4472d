package disambig

import (
	"math"
	"math/rand"
	"testing"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/symbolic"
)

const paperISPOut = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
`

const paperSnippet = `ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 seq 10 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
`

// figure2 builds the paper's Figure 2 configuration for a given insertion
// position (0=a/top, 1=c, 2=d, 3=b/bottom).
func figure2(t *testing.T, pos int) *ios.Config {
	t.Helper()
	cfg := ios.MustParse(paperISPOut + `ip community-list expanded D2 permit _300:3_
ip prefix-list D3 seq 10 permit 100.0.0.0/16 le 23
`)
	st := &ios.Stanza{
		Permit: true,
		Matches: []ios.Match{
			ios.MatchCommunity{List: "D2"},
			ios.MatchPrefixList{List: "D3"},
		},
		Sets: []ios.SetClause{ios.SetMetric{Value: 55}},
	}
	cfg.RouteMaps["ISP_OUT"].InsertStanza(pos, st)
	return cfg
}

func mustEquivalent(t *testing.T, a *ios.Config, b *ios.Config, mapName string) {
	t.Helper()
	space, err := symbolic.NewRouteSpace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := analysis.EquivalentRouteMaps(space, a, a.RouteMaps[mapName], b, b.RouteMaps[mapName])
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("configurations not equivalent:\n--- got ---\n%s\n--- want ---\n%s", a.Print(), b.Print())
	}
}

func TestPaperScenarioTopPlacement(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	target := figure2(t, 0) // Figure 2(a): user wants the new stanza to win
	user := NewSimUserRouteMap(target, "ISP_OUT")
	res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", user)
	if err != nil {
		t.Fatal(err)
	}
	if res.Position != 0 {
		t.Errorf("position = %d, want 0 (top)", res.Position)
	}
	// The distinguishing overlaps are stanza 0 (as-path deny) and stanza 2
	// (local-pref permit); stanza 1 (prefix-list D1) is disjoint.
	if len(res.Overlaps) != 2 || res.Overlaps[0] != 0 || res.Overlaps[1] != 2 {
		t.Errorf("overlaps = %v, want [0 2]", res.Overlaps)
	}
	if len(res.Questions) != 2 {
		t.Errorf("questions = %d, want 2 (= ⌈log₂(2+1)⌉)", len(res.Questions))
	}
	// Figure 2's renaming: COM_LIST→D2, PREFIX_100→D3.
	if res.Renames["COM_LIST"] != "D2" || res.Renames["PREFIX_100"] != "D3" {
		t.Errorf("renames = %v", res.Renames)
	}
	mustEquivalent(t, res.Config, target, "ISP_OUT")
	// Original untouched.
	if len(orig.RouteMaps["ISP_OUT"].Stanzas) != 3 {
		t.Error("original configuration was mutated")
	}
}

func TestPaperScenarioBottomPlacement(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	target := figure2(t, 3) // Figure 2(b)
	user := NewSimUserRouteMap(target, "ISP_OUT")
	res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", user)
	if err != nil {
		t.Fatal(err)
	}
	if res.Position != 3 {
		t.Errorf("position = %d, want 3 (bottom)", res.Position)
	}
	mustEquivalent(t, res.Config, target, "ISP_OUT")
}

func TestPaperScenarioMiddlePlacements(t *testing.T) {
	// Figures 2(c) and 2(d) are semantically equivalent; the algorithm finds
	// a position equivalent to both.
	for _, targetPos := range []int{1, 2} {
		orig := ios.MustParse(paperISPOut)
		snippet := ios.MustParse(paperSnippet)
		target := figure2(t, targetPos)
		user := NewSimUserRouteMap(target, "ISP_OUT")
		res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", user)
		if err != nil {
			t.Fatal(err)
		}
		mustEquivalent(t, res.Config, target, "ISP_OUT")
	}
}

func TestPaperQuestionIsDifferential(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	target := figure2(t, 0)
	var questions []RouteQuestion
	oracle := FuncRouteOracle(func(q RouteQuestion) (bool, error) {
		questions = append(questions, q)
		u := NewSimUserRouteMap(target, "ISP_OUT")
		return u.ChooseRoute(q)
	})
	if _, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", oracle); err != nil {
		t.Fatal(err)
	}
	for _, q := range questions {
		// Every question's input matches the new stanza's conditions:
		// community 300:3 and prefix under 100.0.0.0/16 with length ≤ 23.
		if !q.Input.HasCommunity(route.MustParseCommunity("300:3")) {
			t.Errorf("question input lacks 300:3: %s", q.Input)
		}
		if q.Input.Network.Bits() > 23 {
			t.Errorf("question input outside mask bound: %s", q.Input.Network)
		}
		if analysis.VerdictsEqual(q.NewVerdict, q.OldVerdict) {
			t.Error("question options are observationally identical")
		}
		// OPTION 1 must show metric 55 (the paper's example).
		if q.NewVerdict.Permit && q.NewVerdict.Output.MED != 55 {
			t.Errorf("OPTION 1 metric = %d, want 55", q.NewVerdict.Output.MED)
		}
	}
}

func TestNoOverlapNeedsNoQuestions(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(`ip prefix-list P seq 10 permit 200.0.0.0/8
route-map NEW deny 10
 match ip address prefix-list P
`)
	// 200.0.0.0/8 exactly: disjoint from D1's spaces... but it does overlap
	// stanza 0 (as-path _32$ matches any prefix) — as a deny vs deny pair it
	// is *non-distinguishing*. Stanza 2 (permit lp 300) distinguishes.
	user := NewSimUserRouteMap(figureWith(t, orig, snippet, 0), "ISP_OUT")
	res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "NEW", user)
	if err != nil {
		t.Fatal(err)
	}
	// Only the lp-300 stanza distinguishes → 1 overlap → 1 question.
	if len(res.Overlaps) != 1 || res.Overlaps[0] != 2 {
		t.Errorf("overlaps = %v, want [2]", res.Overlaps)
	}
	if len(res.Questions) != 1 {
		t.Errorf("questions = %d, want 1", len(res.Questions))
	}
}

// figureWith inserts the snippet's stanza at pos in a copy of orig (generic
// version of figure2 for arbitrary snippets).
func figureWith(t *testing.T, orig *ios.Config, snippet *ios.Config, pos int) *ios.Config {
	t.Helper()
	var name string
	for n := range snippet.RouteMaps {
		name = n
	}
	prep, err := PrepareRouteMapStanza(nil, orig, "ISP_OUT", snippet, name)
	if err != nil {
		t.Fatal(err)
	}
	prep.rm.InsertStanza(pos, prep.stanza)
	return prep.work
}

func TestFullyDisjointInsertsWithoutQuestions(t *testing.T) {
	orig := ios.MustParse(`ip prefix-list PL seq 10 permit 10.0.0.0/8
route-map RM deny 10
 match ip address prefix-list PL
`)
	snippet := ios.MustParse(`ip prefix-list P seq 10 permit 20.0.0.0/8
route-map NEW permit 10
 match ip address prefix-list P
`)
	res, err := InsertRouteMapStanza(orig, "RM", snippet, "NEW",
		FuncRouteOracle(func(RouteQuestion) (bool, error) {
			t.Fatal("no question should be asked")
			return false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Questions) != 0 || len(res.Overlaps) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestRenamingAvoidsCapture(t *testing.T) {
	// Original already uses D2: the snippet's lists must skip it.
	orig := ios.MustParse(paperISPOut + "ip prefix-list D2 seq 10 permit 99.0.0.0/8\n")
	snippet := ios.MustParse(paperSnippet)
	target := figureWith(t, orig, snippet, 0)
	res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Renames["COM_LIST"] != "D3" || res.Renames["PREFIX_100"] != "D4" {
		t.Errorf("renames = %v, want D3/D4", res.Renames)
	}
	if err := res.Config.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConditionsHoldAfterInsertion(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	target := figure2(t, 2)
	res, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sample := make([]route.Route, 300)
	for i := range sample {
		sample[i] = testgen.Route(rng)
	}
	if err := CheckIncremental(sample, orig, res.Config, "ISP_OUT", res.Position); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIncrementalDetectsNonInsertion(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	// "Update" that inserts AND reorders the original stanzas: a route
	// previously handled by the as-path deny is now handled by the lp-300
	// permit — M′(r) is neither M(r) nor S*, violating condition 1.
	bad := figure2(t, 0)
	rm := bad.RouteMaps["ISP_OUT"]
	rm.Stanzas[1], rm.Stanzas[3] = rm.Stanzas[3], rm.Stanzas[1]
	rm.Renumber()
	rng := rand.New(rand.NewSource(10))
	var sample []route.Route
	for i := 0; i < 300; i++ {
		sample = append(sample, testgen.Route(rng))
	}
	// A route matching both the as-path deny (orig first-match) and the
	// lp-300 permit, but not the new stanza.
	lp := route.New("55.0.0.0/16").WithASPath(32)
	lp.LocalPref = 300
	sample = append(sample, lp)
	if err := CheckIncremental(sample, orig, bad, "ISP_OUT", 0); err == nil {
		t.Fatal("condition 1 violation not detected")
	}
}

// TestQuickDisambiguationFindsTarget is the core correctness property:
// for random configs, random snippets and every possible target position,
// the binary-search disambiguator with a simulated user produces a
// configuration equivalent to the target, within the logarithmic question
// bound.
func TestQuickDisambiguationFindsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 0
	for trials < 12 {
		orig := testgen.Config(rng, "RM", 4)
		snippetSrc := testgen.Config(rng, "SNIP", 1)
		snippet := extractSnippet(snippetSrc)
		nPos := len(orig.RouteMaps["RM"].Stanzas) + 1
		targetPos := rng.Intn(nPos)
		target := figureWithName(t, orig, "RM", snippet, "SNIP", targetPos)
		user := NewSimUserRouteMap(target, "RM")
		res, err := InsertRouteMapStanza(orig, "RM", snippet, "SNIP", user)
		if err != nil {
			t.Fatalf("trial %d: %v\norig:\n%s\nsnippet:\n%s", trials, err, orig.Print(), snippet.Print())
		}
		k := len(res.Overlaps)
		bound := int(math.Ceil(math.Log2(float64(k + 1))))
		if len(res.Questions) > bound {
			t.Errorf("trial %d: %d questions for %d overlaps (bound %d)", trials, len(res.Questions), k, bound)
		}
		mustEquivalent(t, res.Config, target, "RM")
		trials++
	}
}

// TestQuickLinearAgreesWithBinary: both strategies land on equivalent
// configurations; linear asks at least as many questions.
func TestQuickLinearAgreesWithBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		orig := testgen.Config(rng, "RM", 4)
		snippet := extractSnippet(testgen.Config(rng, "SNIP", 1))
		targetPos := rng.Intn(len(orig.RouteMaps["RM"].Stanzas) + 1)
		target := figureWithName(t, orig, "RM", snippet, "SNIP", targetPos)

		binUser := NewSimUserRouteMap(target, "RM")
		binRes, err := InsertRouteMapStanza(orig, "RM", snippet, "SNIP", binUser)
		if err != nil {
			t.Fatal(err)
		}
		linUser := NewSimUserRouteMap(target, "RM")
		linRes, err := InsertRouteMapStanzaStrategyCached(StrategyLinear, nil, orig, "RM", snippet, "SNIP", linUser)
		if err != nil {
			t.Fatal(err)
		}
		mustEquivalent(t, binRes.Config, linRes.Config, "RM")
		if k := len(binRes.Overlaps); k > 0 {
			if len(binRes.Questions) > k || len(linRes.Questions) > k {
				t.Errorf("trial %d: question counts bin=%d lin=%d overlaps=%d",
					trial, len(binRes.Questions), len(linRes.Questions), k)
			}
		}
	}
}

func TestTopBottomPrototype(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	// Target = top.
	target := figure2(t, 0)
	res, err := InsertRouteMapStanzaStrategyCached(StrategyTopBottom, nil, orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Position != 0 || len(res.Questions) != 1 {
		t.Errorf("top-bottom: pos=%d questions=%d", res.Position, len(res.Questions))
	}
	mustEquivalent(t, res.Config, target, "ISP_OUT")
	// Target = bottom.
	target = figure2(t, 3)
	res, err = InsertRouteMapStanzaStrategyCached(StrategyTopBottom, nil, orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Position != 3 {
		t.Errorf("top-bottom bottom: pos=%d", res.Position)
	}
	mustEquivalent(t, res.Config, target, "ISP_OUT")
}

func TestTopBottomEquivalentCandidatesSkipQuestion(t *testing.T) {
	orig := ios.MustParse(`ip prefix-list PL seq 10 permit 10.0.0.0/8
route-map RM deny 10
 match ip address prefix-list PL
`)
	snippet := ios.MustParse(`ip prefix-list P seq 10 permit 20.0.0.0/8
route-map NEW permit 10
 match ip address prefix-list P
`)
	res, err := InsertRouteMapStanzaStrategyCached(StrategyTopBottom, nil, orig, "RM", snippet, "NEW",
		FuncRouteOracle(func(RouteQuestion) (bool, error) {
			t.Fatal("equivalent candidates should not need a question")
			return false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Questions) != 0 {
		t.Errorf("questions = %d", len(res.Questions))
	}
}

func TestInsertErrors(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	if _, err := InsertRouteMapStanza(orig, "NOPE", snippet, "SET_METRIC", nil); err == nil {
		t.Error("missing target map should fail")
	}
	if _, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "NOPE", nil); err == nil {
		t.Error("missing snippet map should fail")
	}
	two := ios.MustParse(paperSnippet + "route-map SET_METRIC permit 20\n")
	if _, err := InsertRouteMapStanza(orig, "ISP_OUT", two, "SET_METRIC", nil); err == nil {
		t.Error("multi-stanza snippet should fail")
	}
}

// extractSnippet converts a testgen config (route-map "SNIP" with 1 stanza)
// into a self-contained snippet: keep only the lists the stanza references.
func extractSnippet(cfg *ios.Config) *ios.Config {
	out := ios.NewConfig()
	rm := cfg.RouteMaps["SNIP"]
	st := rm.Stanzas[0]
	for _, m := range st.Matches {
		switch m := m.(type) {
		case ios.MatchASPath:
			if _, done := out.ASPathLists[m.List]; !done {
				out.AddASPathList(m.List, cfg.ASPathLists[m.List].Entries...)
			}
		case ios.MatchPrefixList:
			if _, done := out.PrefixLists[m.List]; !done {
				out.AddPrefixList(m.List, cfg.PrefixLists[m.List].Entries...)
			}
		case ios.MatchCommunity:
			if _, done := out.CommunityLists[m.List]; !done {
				src := cfg.CommunityLists[m.List]
				out.AddCommunityList(m.List, src.Expanded, src.Entries...)
			}
		}
	}
	newRM := out.AddRouteMap("SNIP")
	newRM.Stanzas = append(newRM.Stanzas, st.Clone())
	return out
}

// figureWithName is figureWith for arbitrary map names.
func figureWithName(t *testing.T, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, pos int) *ios.Config {
	t.Helper()
	prep, err := PrepareRouteMapStanza(nil, orig, mapName, snippet, snippetMap)
	if err != nil {
		t.Fatal(err)
	}
	prep.rm.InsertStanza(pos, prep.stanza)
	return prep.work
}

// TestFreshListNames pins the names a snippet's lists get: the sequence
// continues after the largest canonical D<k> list name and skips names any
// namespace uses.
func TestFreshListNames(t *testing.T) {
	const base = "route-map ISP_OUT permit 10\n match local-preference 300\n"
	cases := []struct {
		name, extra string
		com, prefix string
	}{
		{"no D lists", "", "D0", "D1"},
		{"leading zero", "ip prefix-list D01 seq 10 permit 10.0.0.0/8\n", "D0", "D1"},
		{"plus sign", "ip prefix-list D+1 seq 10 permit 10.0.0.0/8\n", "D0", "D1"},
		{"negative", "ip prefix-list D-1 seq 10 permit 10.0.0.0/8\n", "D0", "D1"},
		{"trailing text", "ip prefix-list D1x seq 10 permit 10.0.0.0/8\n", "D0", "D1"},
		{"overflow", "ip prefix-list D99999999999999999999 seq 10 permit 10.0.0.0/8\n", "D0", "D1"},
		{"after the largest", "ip as-path access-list D0 permit _32$\nip community-list expanded D7 permit _1:1_\n", "D8", "D9"},
		{"route map and ACL named D<k>", "ip as-path access-list D0 permit _32$\n" +
			"ip prefix-list D1 seq 10 permit 10.0.0.0/8\n" +
			"route-map D3 permit 10\n match local-preference 100\n" +
			"ip access-list extended D4\n permit ip any any\n", "D2", "D5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := ios.MustParse(base + tc.extra)
			in, err := PrepareRouteMapStanza(nil, orig, "ISP_OUT", ios.MustParse(paperSnippet), "SET_METRIC")
			if err != nil {
				t.Fatal(err)
			}
			if got := in.renames; got["COM_LIST"] != tc.com || got["PREFIX_100"] != tc.prefix || len(got) != 2 {
				t.Errorf("renames = %v, want COM_LIST→%s, PREFIX_100→%s", got, tc.com, tc.prefix)
			}
		})
	}
}
