package disambig

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/symbolic"
)

// referenceRouteProbes collects route-map probes the direct way: every
// stanza's full first-match region, conjoined with the new stanza's routes
// and Valid afterwards. It is the oracle for collectProbes, which folds only
// inside the new stanza's routes.
func referenceRouteProbes(t *testing.T, space *symbolic.RouteSpace, work *ios.Config, rm *ios.RouteMap, newStanza *ios.Stanza) []probe[RouteQuestion] {
	t.Helper()
	regions, err := space.FirstMatch(work, rm)
	if err != nil {
		t.Fatal(err)
	}
	predNew, err := space.StanzaPred(work, newStanza)
	if err != nil {
		t.Fatal(err)
	}
	ev := policy.NewEvaluatorWith(work, space.Automata())
	var probes []probe[RouteQuestion]
	for i, st := range rm.Stanzas {
		outEq, err := space.OutputEqual(newStanza, st)
		if err != nil {
			t.Fatal(err)
		}
		region := space.Pool.Diff(space.Pool.AndN(regions[i], predNew, space.Valid), outEq)
		q, found, err := confirmQuestion(space, ev, rm, newStanza, i, region)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			probes = append(probes, probe[RouteQuestion]{rule: i, question: q, region: region})
		}
	}
	return probes
}

// TestRouteProbesMatchReference: on random maps with random new stanzas,
// collectProbes returns referenceRouteProbes' probes, regions node for node
// and witnesses included; and a traced insertion asks the questions, picks
// the position and writes the ledger that a gap search over the reference
// probes gives.
func TestRouteProbesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	probes, asked := 0, 0
	for trial := 0; trial < 300; trial++ {
		orig := testgen.Config(rng, "RM", 1+rng.Intn(8))
		snippet := testgen.Config(rng, "NEW", 1)
		prep, err := prepare(orig, "RM", snippet, "NEW")
		if err != nil {
			t.Fatal(err)
		}
		space, err := symbolic.NewRouteSpace(prep.work, newStanzaWrapper(prep.stanza))
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectProbes(space, prep.work, prep.rm, prep.stanza)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRouteProbes(t, space, prep.work, prep.rm, prep.stanza)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: probes %+v, reference %+v\nconfig:\n%s", trial, got, want, prep.work.Print())
		}
		probes += len(want)

		target := prep.work.Clone()
		target.RouteMaps["RM"].InsertStanza(rng.Intn(len(prep.rm.Stanzas)+1), prep.stanza.Clone())
		user := NewSimUserRouteMap(target, "RM")
		res, err := InsertRouteMapStanzaStrategyTraced(StrategyBinary, nil, orig, "RM", snippet, "NEW", user, obs.NewTrace("update").Root)
		if err != nil {
			t.Fatal(err)
		}
		regions := make([]bdd.Node, len(want))
		for i, p := range want {
			regions[i] = p.region
		}
		meter := ambiguity.NewMeter(space.Pool, "route-map", StrategyBinary.String(), regions)
		var questions []RouteQuestion
		gap, err := searchGap(StrategyBinary, len(want), func(i int) (bool, error) {
			questions = append(questions, want[i].question)
			return user.ChooseRoute(want[i].question)
		}, meter)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		if gap > 0 {
			pos = want[gap-1].rule + 1
		}
		if res.Position != pos || !reflect.DeepEqual(res.Questions, questions) {
			t.Fatalf("trial %d: position %d after %+v, reference %d after %+v", trial, res.Position, res.Questions, pos, questions)
		}
		if ledger := meter.Finish(gap, gap); !reflect.DeepEqual(res.Ambiguity, ledger) {
			t.Fatalf("trial %d: ledger %+v, reference %+v", trial, res.Ambiguity, ledger)
		}
		asked += len(questions)
	}
	t.Logf("300 insertions, %d probes, %d questions asked", probes, asked)
}

// checkMeteredProbes checks that the probes' regions are pairwise disjoint,
// as ambiguity.NewMeter requires, and that a meter over them measures every
// range [lo,hi) as log₂ of the model count of the regions' union.
func checkMeteredProbes[Q any](t *testing.T, pool *bdd.Pool, probes []probe[Q]) {
	t.Helper()
	regions := make([]bdd.Node, len(probes))
	for i, p := range probes {
		regions[i] = p.region
	}
	meter := ambiguity.NewMeter(pool, "route-map", StrategyBinary.String(), regions)
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if pool.And(regions[i], regions[j]) != bdd.False {
				t.Fatalf("probe regions %d and %d overlap", i, j)
			}
		}
	}
	for lo := 0; lo <= len(regions); lo++ {
		union := bdd.False
		for hi := lo; hi <= len(regions); hi++ {
			if hi > lo {
				union = pool.Or(union, regions[hi-1])
			}
			if got, want := meter.Finish(lo, hi).ResidualBits, ambiguity.Log2(pool.SatCount(union)); got != want {
				t.Fatalf("range [%d,%d) of %d probes: meter %v bits, union %v bits", lo, hi, len(regions), got, want)
			}
		}
	}
}

// TestProbeRegionsMeter: on random route maps, a third of them with transit
// lists, and on random ACLs, the probe regions collectProbes and aclProbes
// return are pairwise disjoint, and the meter's prefix sums measure every
// range of them as the union's model count does.
func TestProbeRegionsMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	routeProbes, aclProbeCount := 0, 0
	for trial := 0; trial < 600; trial++ {
		orig := testgen.Config(rng, "RM", 1+rng.Intn(8))
		if trial%3 == 0 {
			testgen.AddTransit(rng, orig, "RM", 1+rng.Intn(3))
		}
		prep, err := prepare(orig, "RM", testgen.Config(rng, "NEW", 1), "NEW")
		if err != nil {
			t.Fatal(err)
		}
		space, err := symbolic.NewRouteSpace(prep.work, newStanzaWrapper(prep.stanza))
		if err != nil {
			t.Fatal(err)
		}
		probes, err := collectProbes(space, prep.work, prep.rm, prep.stanza)
		if err != nil {
			t.Fatal(err)
		}
		checkMeteredProbes(t, space.Pool, probes)
		routeProbes += len(probes)
	}
	for trial := 0; trial < 2000; trial++ {
		cfg := testgen.ACL(rng, "A", 1+rng.Intn(12))
		space := symbolic.NewACLSpace()
		probes := aclProbes(space, cfg.ACLs["A"], testgen.RandomACE(rng, 10))
		checkMeteredProbes(t, space.Pool, probes)
		aclProbeCount += len(probes)
	}
	t.Logf("%d route-map probes, %d ACL probes", routeProbes, aclProbeCount)
}

// referenceListProbes collects list probes the direct way: each entry's
// full first-match region, conjoined with the new entry's routes and Valid
// afterwards.
func referenceListProbes[E any](t *testing.T, space *symbolic.RouteSpace, kind ListKind, name string, entries []E, entry E, rule func(*symbolic.RouteSpace, E) (bdd.Node, bool, error)) []probe[ListQuestion] {
	t.Helper()
	p := space.Pool
	newPred, newPermit, err := rule(space, entry)
	if err != nil {
		t.Fatal(err)
	}
	var probes []probe[ListQuestion]
	notPrev := bdd.True
	for i, e := range entries {
		pred, permit, err := rule(space, e)
		if err != nil {
			t.Fatal(err)
		}
		region := p.AndN(p.And(notPrev, pred), newPred, space.Valid)
		notPrev = p.And(notPrev, p.Not(pred))
		if permit == newPermit {
			continue
		}
		w, ok, err := space.Witness(region)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			probes = append(probes, probe[ListQuestion]{rule: i, region: region, question: ListQuestion{
				Kind: kind, List: name, Input: w, NewPermit: newPermit, OldPermit: permit, ProbedEntry: i,
			}})
		}
	}
	return probes
}

// checkListProbes checks listProbes against referenceListProbes on one list
// of cfg, and that insert, for every target position, asks the questions and
// picks the position a gap search over the reference probes does.
func checkListProbes[E any](t *testing.T, kind ListKind, cfg *ios.Config, name string, entries []E, entry E, rule func(*symbolic.RouteSpace, E) (bdd.Node, bool, error), insert func(ListOracle) (*ListResult, error), wrappers ...*ios.Config) {
	t.Helper()
	space, err := symbolic.NewRouteSpace(append([]*ios.Config{cfg}, wrappers...)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := listProbes(space, kind, name, entries, entry, rule)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceListProbes(t, space, kind, name, entries, entry, rule)
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: probes %+v, reference %+v (want at least 2)", kind, name, got, want)
	}
	for k := 0; k <= len(entries); k++ {
		below := func(q ListQuestion) (bool, error) { return q.ProbedEntry >= k, nil }
		res, err := insert(FuncListOracle(below))
		if err != nil {
			t.Fatal(err)
		}
		var questions []ListQuestion
		gap, err := searchGap(StrategyBinary, len(want), func(i int) (bool, error) {
			questions = append(questions, want[i].question)
			return below(want[i].question)
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		if gap > 0 {
			pos = want[gap-1].rule + 1
		}
		if res.Position != pos || !reflect.DeepEqual(res.Questions, questions) {
			t.Fatalf("%s %s, target %d: position %d after %+v, reference %d after %+v", kind, name, k, res.Position, res.Questions, pos, questions)
		}
	}
}

// TestListProbesMatchReference runs checkListProbes on one list of each
// kind, each with several entries the new entry overlaps with the opposite
// action.
func TestListProbesMatchReference(t *testing.T) {
	pl := ios.MustParse(`ip prefix-list L seq 10 permit 10.1.2.0/24 le 26
ip prefix-list L seq 20 deny 10.1.0.0/16 le 24
ip prefix-list L seq 30 permit 10.0.0.0/8 le 28
ip prefix-list L seq 40 deny 0.0.0.0/0 le 32
`)
	pEntry := ios.PrefixListEntry{Permit: false, Prefix: netip.MustParsePrefix("10.1.0.0/16"), Le: 32}
	checkListProbes(t, KindPrefixList, pl, "L", pl.PrefixLists["L"].Entries, pEntry,
		func(s *symbolic.RouteSpace, e ios.PrefixListEntry) (bdd.Node, bool, error) {
			return s.PrefixEntryPred(e), e.Permit, nil
		},
		func(o ListOracle) (*ListResult, error) { return InsertPrefixListEntry(pl, "L", pEntry, o) })

	cl := ios.MustParse(`ip community-list expanded CL deny _300:3_
ip community-list expanded CL permit _300:[0-9]+_
ip community-list expanded CL deny _[0-9]+:3_
ip community-list expanded CL permit .*
`)
	cEntry := ios.CommunityListEntry{Permit: true, Values: []string{"_[0-9]+:[0-9]_"}}
	cWrapper := ios.NewConfig()
	cWrapper.AddCommunityList("__NEW__", true, cEntry)
	checkListProbes(t, KindCommunityList, cl, "CL", cl.CommunityLists["CL"].Entries, cEntry,
		func(s *symbolic.RouteSpace, e ios.CommunityListEntry) (bdd.Node, bool, error) {
			pred, err := s.CommunityEntryPred(true, e)
			return pred, e.Permit, err
		},
		func(o ListOracle) (*ListResult, error) { return InsertCommunityListEntry(cl, "CL", cEntry, o) }, cWrapper)

	al := ios.MustParse(`ip as-path access-list AL permit _32$
ip as-path access-list AL deny _100_
ip as-path access-list AL permit ^65000_
ip as-path access-list AL deny .*
`)
	aEntry := ios.ASPathEntry{Permit: false, Regex: "_[0-9]+$"}
	aWrapper := ios.NewConfig()
	aWrapper.AddASPathList("__NEW__", aEntry)
	checkListProbes(t, KindASPathList, al, "AL", al.ASPathLists["AL"].Entries, aEntry,
		func(s *symbolic.RouteSpace, e ios.ASPathEntry) (bdd.Node, bool, error) {
			pred, err := s.ASPathEntryPred(e)
			return pred, e.Permit, err
		},
		func(o ListOracle) (*ListResult, error) { return InsertASPathEntry(al, "AL", aEntry, o) }, aWrapper)
}

// TestInsertErrorsUnchanged: a map using continue, and a stanza matching an
// undefined prefix-list behind one that matches every route, still fail
// disambiguation with the errors of the full first-match fold. The fold
// inside the new stanza's routes stops at the match-all stanza, but every
// stanza is encoded first, and the map's errors come before the new
// stanza's.
func TestInsertErrorsUnchanged(t *testing.T) {
	const continueMap = "route-map RM permit 10\n match local-preference 300\n continue 20\nroute-map RM permit 20\n"
	const continueErr = "symbolic: route-map RM uses continue; first-match analyses are unsupported"
	keep := FuncRouteOracle(func(RouteQuestion) (bool, error) { return false, nil })
	for _, tc := range []struct{ config, snippet, err string }{
		{continueMap, "route-map NEW permit 10\n set metric 5\n", continueErr},
		{"route-map RM permit 10\nroute-map RM deny 20\n match ip address prefix-list NOPE\n",
			"route-map NEW permit 10\n set metric 5\n", `symbolic: undefined prefix-list "NOPE"`},
		{continueMap, "route-map NEW permit 10\n match ip address prefix-list GONE\n", continueErr},
		{"route-map RM permit 10\n", "route-map NEW permit 10\n match ip address prefix-list GONE\n",
			`symbolic: undefined prefix-list "GONE"`},
	} {
		_, err := InsertRouteMapStanza(ios.MustParse(tc.config), "RM", ios.MustParse(tc.snippet), "NEW", keep)
		if err == nil || err.Error() != tc.err {
			t.Errorf("config:\n%ssnippet:\n%s: error %v, want %q", tc.config, tc.snippet, err, tc.err)
		}
	}
}
