package symbolic

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
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

func newPaperSpace(t *testing.T) (*RouteSpace, *ios.Config) {
	t.Helper()
	cfg := ios.MustParse(paperISPOut)
	s, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

func TestStanzaPredWitness(t *testing.T) {
	s, cfg := newPaperSpace(t)
	rm := cfg.RouteMaps["ISP_OUT"]
	ev := policy.NewEvaluator(cfg)
	for i, st := range rm.Stanzas {
		pred, err := s.StanzaPred(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		r, ok, err := s.Witness(pred)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stanza %d unsatisfiable", i)
		}
		matches, err := ev.StanzaMatches(st, r)
		if err != nil {
			t.Fatal(err)
		}
		if !matches {
			t.Errorf("stanza %d witness %s does not match concretely", i, r.Network)
		}
	}
}

func TestFirstMatchPartition(t *testing.T) {
	s, cfg := newPaperSpace(t)
	rm := cfg.RouteMaps["ISP_OUT"]
	regions, err := s.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != len(rm.Stanzas)+1 {
		t.Fatalf("got %d regions", len(regions))
	}
	p := s.Pool
	// Disjoint.
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if p.And(regions[i], regions[j]) != bdd.False {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
	// Exhaustive.
	all := bdd.False
	for _, r := range regions {
		all = p.Or(all, r)
	}
	if all != bdd.True {
		t.Error("regions do not cover the space")
	}
}

func TestFirstMatchAgreesWithEvaluator(t *testing.T) {
	s, cfg := newPaperSpace(t)
	rm := cfg.RouteMaps["ISP_OUT"]
	regions, err := s.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	ev := policy.NewEvaluator(cfg)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		r := testgen.Route(rng)
		v, err := ev.EvalRouteMap(rm, r)
		if err != nil {
			t.Fatal(err)
		}
		wantRegion := v.Index
		if wantRegion == policy.ImplicitDeny {
			wantRegion = len(regions) - 1
		}
		vec := s.EncodeRoute(r)
		for ri, reg := range regions {
			got := s.Pool.Eval(reg, vec)
			if got != (ri == wantRegion) {
				t.Fatalf("route %s: region %d = %v, evaluator chose %d", r.Network, ri, got, v.Index)
			}
		}
	}
	// A path holding a six-digit ASN lies in no atom of the universe: it
	// encodes outside Valid and matches no as-path entry.
	vec := s.EncodeRoute(route.New("10.0.0.0/8").WithASPath(123456, 32))
	if s.Pool.Eval(s.Valid, vec) {
		t.Error("path [123456 32] encodes inside Valid")
	}
	for _, e := range cfg.ASPathLists["D0"].Entries {
		m, err := s.ASPathEntryPred(e)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pool.Eval(m, vec) {
			t.Errorf("path [123456 32] matches as-path entry %q", e.Regex)
		}
	}
}

// TestTransitSpaceNodeBound: k transit stanzas give 2^k as-path atoms, and
// the space plus its first-match fold must stay small: 3.6k nodes at k=8 and
// 16.6k at k=10. It bounds nodes, not time.
func TestTransitSpaceNodeBound(t *testing.T) {
	const bound = 50000
	for _, k := range []int{8, 10} {
		cfg := transitConfig(k)
		s, err := NewRouteSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.PathAtomCount(); got != 1<<k {
			t.Fatalf("k=%d: %d as-path atoms, want %d", k, got, 1<<k)
		}
		if _, err := s.FirstMatch(cfg, cfg.RouteMaps["TRANSIT"]); err != nil {
			t.Fatal(err)
		}
		if n := s.Pool.Size(); n > bound {
			t.Fatalf("k=%d: %d nodes, bound %d", k, n, bound)
		}
	}
}

// TestQuickRouteMapAgreement: random route maps over random lists, random
// routes — the symbolic fold agrees with the concrete evaluator
// (checkRouteMapFirstMatch).
func TestQuickRouteMapAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		checkRouteMapFirstMatch(t, rng, 1+trial%8, 0)
	}
}

// FuzzRouteMapFirstMatch runs checkRouteMapFirstMatch on fuzzed seeds,
// sizes and transit list counts. Transit lists take the as-path universe to
// tens of atoms, most counts not a power of two:
//
//	go test -run '^$' -fuzz '^FuzzRouteMapFirstMatch$' -fuzztime 15s ./symbolic/
func FuzzRouteMapFirstMatch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*3), uint8(0))
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*3), uint8(1+seed%6))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, transit uint8) {
		checkRouteMapFirstMatch(t, rand.New(rand.NewSource(seed)), int(n%8)+1, int(transit%7))
	})
}

// checkRouteMapFirstMatch draws a testgen.Config route map of n stanzas,
// with its lists, adds transit testgen.AddTransit lists and stanzas, and
// checks the first-match fold against policy.EvalRouteMap: 64 random routes
// land in the region of their verdict's stanza and in PermitSet exactly when
// permitted, every non-empty region's witness evaluates to that region, and
// FirstMatchWithin the routes of one more random stanza is FirstMatch ∧
// those routes, node for node. The match boxes FirstMatchWithin skips by
// are sound: a stanza whose box misses the extra stanza's shares no route
// with it.
func checkRouteMapFirstMatch(t *testing.T, rng *rand.Rand, n, transit int) {
	t.Helper()
	cfg := testgen.Config(rng, "RM", n+1)
	if transit > 0 {
		testgen.AddTransit(rng, cfg, "RM", transit)
	}
	s, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm := cfg.RouteMaps["RM"]
	n = len(rm.Stanzas) - 1
	extra := rm.Stanzas[n]
	rm.Stanzas = rm.Stanzas[:n]
	regions, err := s.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	permit, err := s.PermitSet(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	ev := policy.NewEvaluator(cfg)
	region := func(r route.Route) (int, bool) {
		v, err := ev.EvalRouteMap(rm, r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Index == policy.ImplicitDeny {
			return n, v.Permit
		}
		return v.Index, v.Permit
	}
	for i := 0; i < 64; i++ {
		r := testgen.Route(rng)
		want, permitted := region(r)
		vec := s.EncodeRoute(r)
		for ri, reg := range regions {
			if got := s.Pool.Eval(reg, vec); got != (ri == want) {
				t.Fatalf("route %s: region %d=%v, want region %d\nconfig:\n%s", r, ri, got, want, cfg.Print())
			}
		}
		if got := s.Pool.Eval(permit, vec); got != permitted {
			t.Fatalf("route %s: PermitSet=%v, EvalRouteMap permit=%v\nconfig:\n%s", r, got, permitted, cfg.Print())
		}
	}
	for ri, reg := range regions {
		r, ok, err := s.Witness(reg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // shadowed stanza
		}
		if got, _ := region(r); got != ri {
			t.Fatalf("witness %s of region %d evaluates to region %d\nconfig:\n%s", r, ri, got, cfg.Print())
		}
	}
	pred, err := s.StanzaPred(cfg, extra)
	if err != nil {
		t.Fatal(err)
	}
	domain := s.Pool.And(pred, s.Valid)
	within, err := s.FirstMatchWithin(cfg, rm, extra)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range within {
		if want := s.Pool.And(regions[i], domain); got != want {
			t.Fatalf("FirstMatchWithin[%d] = %d, want FirstMatch ∧ domain = %d\nconfig:\n%s", i, got, want, cfg.Print())
		}
	}
	box, _ := addressBox(cfg, extra)
	for i, st := range rm.Stanzas {
		if !missesBox(cfg, st, box) {
			continue
		}
		other, err := s.StanzaPred(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pool.And(pred, other) != bdd.False {
			t.Fatalf("stanza %d's match box misses the extra stanza's, but they share routes\nconfig:\n%s", i, cfg.Print())
		}
	}
}

// TestQuickConcreteSymbolicAgreement is the central lockstep property:
// random configs, random routes, StanzaMatches ⇔ StanzaPred.
func TestQuickConcreteSymbolicAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		cfg := testgen.Config(rng, "RM", 4)
		s, err := NewRouteSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev := policy.NewEvaluator(cfg)
		rm := cfg.RouteMaps["RM"]
		for i := 0; i < 40; i++ {
			r := testgen.Route(rng)
			vec := s.EncodeRoute(r)
			for si, st := range rm.Stanzas {
				concrete, err := ev.StanzaMatches(st, r)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := s.StanzaPred(cfg, st)
				if err != nil {
					t.Fatal(err)
				}
				if sym := s.Pool.Eval(pred, vec); sym != concrete {
					t.Fatalf("trial %d stanza %d route %s:\nconcrete=%v symbolic=%v\nconfig:\n%s\nroute:\n%s",
						trial, si, r.Network, concrete, sym, cfg.Print(), r)
				}
			}
		}
	}
}

func TestWitnessRoundTrip(t *testing.T) {
	s, cfg := newPaperSpace(t)
	// Witness of (matches D1 prefix list) decodes to a route that concretely
	// matches, and re-encodes to satisfy the predicate.
	pred := s.PrefixListPred(cfg.PrefixLists["D1"])
	r, ok, err := s.Witness(pred)
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	if !policy.PrefixListPermits(cfg.PrefixLists["D1"], r) {
		t.Errorf("witness %s not permitted concretely", r.Network)
	}
	if !s.Pool.Eval(pred, s.EncodeRoute(r)) {
		t.Error("witness does not re-encode into predicate")
	}
}

// TestWitnessesDistinctAndBounded: WitnessWhere decodes at most limit
// models, each a distinct route the list permits, and stops at the first
// one accept takes.
func TestWitnessesDistinctAndBounded(t *testing.T) {
	s, cfg := newPaperSpace(t)
	pred := s.PrefixListPred(cfg.PrefixLists["D1"])
	var seen []route.Route
	ok, err := s.WitnessWhere(pred, 5, func(w route.Route) (bool, error) {
		seen = append(seen, w)
		return false, nil
	})
	if err != nil || ok {
		t.Fatalf("rejecting every model: ok=%v err=%v", ok, err)
	}
	if len(seen) < 2 || len(seen) > 5 {
		t.Fatalf("decoded %d models, want 2 to 5", len(seen))
	}
	for i, w := range seen {
		if !policy.PrefixListPermits(cfg.PrefixLists["D1"], w) {
			t.Errorf("witness %s not permitted", w.Network)
		}
		for _, v := range seen[:i] {
			if v.Network == w.Network {
				t.Errorf("witness %s decoded twice", w.Network)
			}
		}
	}
	var taken []route.Route
	ok, err = s.WitnessWhere(pred, 5, func(w route.Route) (bool, error) {
		taken = append(taken, w)
		return len(taken) == 2, nil
	})
	if err != nil || !ok || len(taken) != 2 || taken[1].Network != seen[1].Network {
		t.Fatalf("accepting the second model: ok=%v err=%v after %d models, want the second of %v", ok, err, len(taken), seen)
	}
}

// TestUndecodableLiteralWitness checks the literal ^70000:1$: the universe
// holds it, since its halves have at most five digits, but 70000 is no
// 16-bit half, so a route inside it has no decodable witness.
func TestUndecodableLiteralWitness(t *testing.T) {
	cfg := ios.MustParse("ip community-list expanded C permit ^70000:1$\nip community-list expanded D permit _65000:1_\n")
	s, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for list, wantErr := range map[string]bool{"C": true, "D": false} {
		pred, err := s.CommunityEntryPred(true, cfg.CommunityLists[list].Entries[0])
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := s.Witness(pred)
		if gotErr := err != nil && strings.Contains(err.Error(), "no decodable witness"); gotErr != wantErr || (!wantErr && (err != nil || !ok)) {
			t.Errorf("list %s: witness ok=%v err=%v, want the decode error: %v", list, ok, err, wantErr)
		}
	}
}

func TestDefaultsInDecode(t *testing.T) {
	s, _ := newPaperSpace(t)
	// A predicate placing no constraint on local-pref or next-hop should
	// decode with Cisco defaults.
	r, ok, err := s.Witness(bdd.True)
	if err != nil || !ok {
		t.Fatal("trivial witness failed")
	}
	if r.LocalPref != 100 {
		t.Errorf("default local-pref = %d, want 100", r.LocalPref)
	}
	if r.NextHop.String() != "0.0.0.1" {
		t.Errorf("default next-hop = %s", r.NextHop)
	}
}

func TestOutputEqualDenyCases(t *testing.T) {
	s, cfg := newPaperSpace(t)
	denySt := cfg.RouteMaps["ISP_OUT"].Stanzas[0]   // deny
	permitSt := cfg.RouteMaps["ISP_OUT"].Stanzas[2] // permit
	eq, err := s.OutputEqual(nil, nil)
	if err != nil || eq != bdd.True {
		t.Error("implicit-deny vs implicit-deny should be True")
	}
	eq, err = s.OutputEqual(denySt, nil)
	if err != nil || eq != bdd.True {
		t.Error("deny vs implicit-deny should be True")
	}
	eq, err = s.OutputEqual(permitSt, nil)
	if err != nil || eq != bdd.False {
		t.Error("permit vs deny should be False")
	}
}

func TestOutputEqualSetMetric(t *testing.T) {
	cfg := ios.MustParse(`route-map A permit 10
 set metric 55
route-map B permit 10
`)
	s, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.RouteMaps["A"].Stanzas[0]
	b := cfg.RouteMaps["B"].Stanzas[0]
	eq, err := s.OutputEqual(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs differ exactly where input MED != 55.
	r55 := route.New("9.0.0.0/8")
	r55.MED = 55
	if !s.Pool.Eval(eq, s.EncodeRoute(r55)) {
		t.Error("routes with MED 55 should be equal under both stanzas")
	}
	r0 := route.New("9.0.0.0/8")
	if s.Pool.Eval(eq, s.EncodeRoute(r0)) {
		t.Error("routes with MED 0 should differ")
	}
	// Same constant on both sides → True.
	eq2, _ := s.OutputEqual(a, a)
	if eq2 != bdd.True {
		t.Error("stanza vs itself should be identically equal")
	}
}

func TestOutputEqualCommunities(t *testing.T) {
	cfg := ios.MustParse(`route-map A permit 10
 set community 9:9 additive
route-map B permit 10
route-map C permit 10
 set community 9:9
`)
	s, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.RouteMaps["A"].Stanzas[0] // additive 9:9
	b := cfg.RouteMaps["B"].Stanzas[0] // no-op
	c := cfg.RouteMaps["C"].Stanzas[0] // replace with {9:9}
	eqAB, err := s.OutputEqual(a, b)
	if err != nil {
		t.Fatal(err)
	}
	has := route.New("9.0.0.0/8").WithCommunities("9:9")
	hasNot := route.New("9.0.0.0/8").WithCommunities("300:3")
	if !s.Pool.Eval(eqAB, s.EncodeRoute(has)) {
		t.Error("route already tagged 9:9: additive vs no-op should agree")
	}
	if s.Pool.Eval(eqAB, s.EncodeRoute(hasNot)) {
		t.Error("route without 9:9: additive vs no-op should differ")
	}
	eqAC, err := s.OutputEqual(a, c)
	if err != nil {
		t.Fatal(err)
	}
	only99 := route.New("9.0.0.0/8").WithCommunities("9:9")
	if !s.Pool.Eval(eqAC, s.EncodeRoute(only99)) {
		t.Error("input {9:9}: additive and replace agree")
	}
	extra := route.New("9.0.0.0/8").WithCommunities("9:9", "300:3")
	if s.Pool.Eval(eqAC, s.EncodeRoute(extra)) {
		t.Error("input {9:9,300:3}: additive keeps 300:3, replace drops it")
	}
}

// TestQuickOutputEqualAgreesWithConcrete: whenever OutputEqual says equal at
// the abstraction, concrete application of the two set lists to the route
// produces attribute-identical results (soundness of the abstraction for
// equality claims over routes representable in the universe).
func TestQuickOutputEqualAgreesWithConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		cfg := testgen.Config(rng, "RM", 3)
		s, err := NewRouteSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rm := cfg.RouteMaps["RM"]
		var permits []*ios.Stanza
		for _, st := range rm.Stanzas {
			if st.Permit {
				permits = append(permits, st)
			}
		}
		if len(permits) < 2 {
			continue
		}
		a, b := permits[0], permits[1]
		eq, err := s.OutputEqual(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			r := testgen.Route(rng)
			outA := policy.ApplySets(a.Sets, r)
			outB := policy.ApplySets(b.Sets, r)
			symEq := s.Pool.Eval(eq, s.EncodeRoute(r))
			conEq := outA.Equal(outB)
			if symEq != conEq {
				t.Fatalf("trial %d: symbolic eq=%v concrete eq=%v\nroute:\n%s\nsetsA=%v setsB=%v",
					trial, symEq, conEq, r, a.Sets, b.Sets)
			}
		}
	}
}
