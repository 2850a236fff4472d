package clarify

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

// cloudRouteIntent renders a route-map intent in the SimLLM grammar over a
// random /16: permit (with a MED) or deny, a fresh community, and as-path
// condition asKind (0 none, 1 origin, 2 transit, 3 neighbor).
func cloudRouteIntent(rng *rand.Rand, asKind int) string {
	var b strings.Builder
	permit := rng.Intn(4) != 0
	b.WriteString("Write a route-map stanza that ")
	if permit {
		b.WriteString("permits")
	} else {
		b.WriteString("denies")
	}
	pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(100 + rng.Intn(120)), byte(rng.Intn(250)), 0, 0}), 16)
	fmt.Fprintf(&b, " routes containing the prefix %s with mask length less than or equal to %d and tagged with the community %d:%d",
		pfx, 17+rng.Intn(12), 1000+rng.Intn(60000), rng.Intn(65536))
	asn := 64512 + rng.Intn(1000)
	switch asKind {
	case 1:
		fmt.Fprintf(&b, " and originating from AS %d", asn)
	case 2:
		fmt.Fprintf(&b, " and passing through AS %d", asn)
	case 3:
		fmt.Fprintf(&b, " and received from neighbor AS %d", asn)
	}
	b.WriteString(".")
	if permit {
		fmt.Fprintf(&b, " Their MED value should be set to %d.", 1+rng.Intn(200))
	}
	return b.String()
}

// TestSharedRouteSpaceMatchesSeparate: a route-map update verifies its
// snippet and disambiguates in one space, which holds the spec's config on
// top of disambiguation's universe. Re-inserting every verified snippet of
// aged sessions on the cloud corpus's overlapping maps in a space of its
// own, under the same oracle, must give the overlaps, questions (witness
// routes included), position, ledger JSON and configuration the update gave.
func TestSharedRouteSpaceMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var maps []*ios.Config
	for _, cfg := range workload.Cloud(1, 0, 200).RouteMapConfigs {
		if len(cfg.CommunityLists) > 0 {
			maps = append(maps, cfg)
		}
	}
	const life = 4 // updates per session
	updates, questions, asPath := 0, 0, 0
	for si := 0; updates < 120; si++ {
		base := maps[si%len(maps)]
		name := onlyRouteMap(base)
		threshold := 0
		oracle := disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return q.ProbedStanza >= threshold, nil })
		s := &Session{
			Client:      llm.NewSimLLM(),
			Config:      base,
			RouteOracle: oracle,
			SpaceCache:  symbolic.NewSpaceCache(),
			Observer:    obs.SinkFunc(func(*obs.Trace) {}),
		}
		for step := 0; step < life; step++ {
			before := s.CurrentConfig()
			threshold = rng.Intn(len(before.RouteMaps[name].Stanzas) + 1)
			asKind := (si + step) % 4
			text := cloudRouteIntent(rng, asKind)
			res, err := s.Submit(context.Background(), text, name)
			if err != nil {
				t.Fatalf("session %d update %d %q: %v", si, step, text, err)
			}
			snippet := ios.MustParse(res.SnippetText)
			tr := obs.NewTrace("update")
			sep, err := disambig.InsertRouteMapStanzaStrategyTraced(disambig.StrategyBinary, nil, before, name, snippet, onlyRouteMap(snippet), oracle, tr.Root)
			if err != nil {
				t.Fatal(err)
			}
			got := res.RouteInsert
			if !reflect.DeepEqual(got.Overlaps, sep.Overlaps) || !reflect.DeepEqual(got.Questions, sep.Questions) || got.Position != sep.Position {
				t.Fatalf("session %d update %d %q: shared space gave overlaps %v position %d questions\n%v\nseparate %v %d\n%v",
					si, step, text, got.Overlaps, got.Position, got.Questions, sep.Overlaps, sep.Position, sep.Questions)
			}
			if g, w := ledgerJSON(t, got), ledgerJSON(t, sep); g != w {
				t.Fatalf("session %d update %d %q: ledger %s, separate %s", si, step, text, g, w)
			}
			if g, w := got.Config.Print(), sep.Config.Print(); g != w {
				t.Fatalf("session %d update %d %q: config\n%s\nseparate\n%s", si, step, text, g, w)
			}
			updates++
			questions += len(got.Questions)
			if asKind != 0 {
				asPath++
			}
		}
	}
	if questions == 0 || asPath == 0 || asPath == updates {
		t.Fatalf("%d updates (%d with as-path conditions) asking %d questions: inputs too narrow to mean anything", updates, asPath, questions)
	}
	t.Logf("%d updates, %d with as-path conditions, %d questions", updates, asPath, questions)
}

func ledgerJSON(t *testing.T, res *disambig.RouteResult) string {
	t.Helper()
	if res.Ambiguity == nil {
		t.Fatal("traced insertion has no ledger")
	}
	b, err := json.Marshal(res.Ambiguity)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// onlyRouteMap names cfg's one route map.
func onlyRouteMap(cfg *ios.Config) string {
	for name := range cfg.RouteMaps {
		return name
	}
	return ""
}

// TestParkedDialogueHoldsNoSpace: by the time the operator is asked, the
// update has given its route space back to the cache, so a parked dialogue
// leaves every space the cache built idle for concurrent sessions on the
// same map and intent. It holds for every strategy, traced or not.
func TestParkedDialogueHoldsNoSpace(t *testing.T) {
	for _, strategy := range []disambig.Strategy{disambig.StrategyBinary, disambig.StrategyLinear, disambig.StrategyTopBottom} {
		for _, traced := range []bool{false, true} {
			cache := symbolic.NewSpaceCache()
			asked := 0
			s := newPaperSession(t, llm.NewSimLLM())
			s.SpaceCache = cache
			s.Strategy = strategy
			if traced {
				s.Observer = obs.SinkFunc(func(*obs.Trace) {})
			}
			user := s.RouteOracle
			s.RouteOracle = disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) {
				asked++
				if st := cache.Stats(); st.Idle != int(st.Misses) || st.Misses == 0 {
					t.Errorf("%v traced %v, question %d: %d of %d spaces built are idle", strategy, traced, asked, st.Idle, st.Misses)
				}
				return user.ChooseRoute(q)
			})
			if _, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); asked == 0 || st.Idle != int(st.Misses) {
				t.Errorf("%v traced %v: %d questions, then %d of %d spaces idle", strategy, traced, asked, st.Idle, st.Misses)
			}
		}
	}
}

// TestMissingTargetMapKeepsError: the walkthrough submitted against a map
// the configuration lacks fails, after its one synthesis attempt, with
// disambiguation's error as it is, and counts no retry and no update.
func TestMissingTargetMapKeepsError(t *testing.T) {
	for _, cache := range []*symbolic.SpaceCache{nil, symbolic.NewSpaceCache()} {
		s := newPaperSession(t, llm.NewSimLLM())
		s.SpaceCache = cache
		_, err := s.Submit(context.Background(), paperPrompt, "NOPE")
		if want := `disambig: route-map "NOPE" not in configuration`; err == nil || err.Error() != want {
			t.Errorf("error %v, want %q", err, want)
		}
		if got, want := s.Stats(), (Stats{LLMCalls: 3}); got != want {
			t.Errorf("stats %+v, want %+v", got, want)
		}
	}
}

// TestUpdateCompilesNoLiteral: the walkthrough's community 300:3 reaches the
// update's space twice, as the snippet's _300:3_ and the spec's ^300:3$.
// Verification, disambiguation and its witness confirmation all compile
// through the cache's automaton table, which must hold only the base map's
// as-path regex _32$ afterwards: neither literal is compiled.
func TestUpdateCompilesNoLiteral(t *testing.T) {
	cache := symbolic.NewSpaceCache()
	session := &Session{
		Client: llm.NewSimLLM(),
		Config: ios.MustParse(paperISPOut),
		RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
			return true, nil
		}),
		SpaceCache: cache,
	}
	res, err := session.Submit(context.Background(), paperPrompt, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	if _, questions, _, _ := res.Placement(); questions == 0 {
		t.Fatal("the walkthrough asked no question, so no witness was confirmed")
	}
	if n := cache.Stats().Automata; n != 1 {
		t.Errorf("the cache's table holds %d automata, want 1 (_32$)", n)
	}
}
