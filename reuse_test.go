package clarify

import (
	"context"
	"testing"

	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/symbolic"
)

func TestReuseSkipsLLMCalls(t *testing.T) {
	sim := llm.NewSimLLM()
	s := &Session{
		Client:      sim,
		Config:      ios.MustParse("route-map A permit 10\nroute-map B deny 10\n"),
		RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return true, nil }),
		EnableReuse: true,
	}
	const text = "Write a route-map stanza that denies routes passing through AS 666."
	if _, err := s.Submit(context.Background(), text, "A"); err != nil {
		t.Fatal(err)
	}
	after1 := s.Stats().LLMCalls
	if after1 != 3 {
		t.Fatalf("first submit cost %d calls, want 3", after1)
	}
	// Same intent against a different map: the cached verified snippet is
	// reused; no new LLM calls.
	res, err := s.Submit(context.Background(), text, "B")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LLMCalls; got != after1 {
		t.Errorf("reused submit cost %d extra calls", got-after1)
	}
	if res.RouteInsert == nil {
		t.Fatal("reused submit did not insert")
	}
	if len(s.Config.RouteMaps["B"].Stanzas) != 2 {
		t.Errorf("B has %d stanzas", len(s.Config.RouteMaps["B"].Stanzas))
	}
	if s.Stats().Updates != 2 {
		t.Errorf("updates = %d", s.Stats().Updates)
	}
}

func TestReuseDisabledByDefault(t *testing.T) {
	sim := llm.NewSimLLM()
	s := &Session{
		Client:      sim,
		Config:      ios.MustParse("route-map A permit 10\n"),
		RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return true, nil }),
	}
	const text = "Write a route-map stanza that denies routes passing through AS 666."
	if _, err := s.Submit(context.Background(), text, "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), text, "A"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LLMCalls; got != 6 {
		t.Errorf("without reuse, two submits should cost 6 calls, got %d", got)
	}
}

func TestReuseKeepsDisambiguationPerTarget(t *testing.T) {
	// Reuse skips synthesis but never placement: inserting the same snippet
	// into a map where it conflicts still asks questions.
	sim := llm.NewSimLLM()
	questions := 0
	s := &Session{
		Client: sim,
		Config: ios.MustParse(`ip prefix-list P seq 10 permit 10.0.0.0/8 le 32
route-map EMPTY permit 10
 match ip address prefix-list P
route-map CONFLICT deny 10
`),
		RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
			questions++
			return true, nil
		}),
		EnableReuse: true,
	}
	const text = "Write a route-map stanza that permits routes with the prefix 10.0.0.0/8 with mask length less than or equal to 24 and set the community 9:9."
	if _, err := s.Submit(context.Background(), text, "EMPTY"); err != nil {
		t.Fatal(err)
	}
	q1 := questions
	if _, err := s.Submit(context.Background(), text, "CONFLICT"); err != nil {
		t.Fatal(err)
	}
	if questions <= q1 {
		t.Error("reused insertion into a conflicting map should still ask")
	}
}

// TestReuseHitsCachedSpace: a reused route-map intent checks out its space
// with the spec's config, as the update that verified the snippet did, so
// against the same configuration it finds that update's space in the cache.
func TestReuseHitsCachedSpace(t *testing.T) {
	cache := symbolic.NewSpaceCache()
	s := newPaperSession(t, llm.NewSimLLM())
	s.SpaceCache = cache
	s.EnableReuse = true
	base := s.CurrentConfig()
	first, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("first run: %+v, want 0 hits and 1 miss", st)
	}
	s.Config = base
	reused, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LLMCalls; got != 3 {
		t.Errorf("%d LLM calls, want the first run's 3 only", got)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("reused run: %+v, want 1 hit and no further miss", st)
	}
	if reused.RouteInsert.Position != first.RouteInsert.Position || len(reused.RouteInsert.Questions) != len(first.RouteInsert.Questions) {
		t.Errorf("reused run placed at %d after %d questions, first at %d after %d",
			reused.RouteInsert.Position, len(reused.RouteInsert.Questions), first.RouteInsert.Position, len(first.RouteInsert.Questions))
	}
}
