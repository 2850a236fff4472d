package clarify

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/symbolic"
)

func mustEquivalentMaps(t *testing.T, a, b *ios.Config, mapName string) {
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
		t.Fatalf("configurations not equivalent:\n--- a ---\n%s\n--- b ---\n%s", a.Print(), b.Print())
	}
}

// TestConcurrentSubmits drives one session from two goroutines (run under
// -race): Submit must work against a config snapshot and install its result
// under the session mutex, so neither call observes a torn config and the
// counters add up. Regression test for the unguarded Session.Config access.
func TestConcurrentSubmits(t *testing.T) {
	s := &Session{
		Client:      llm.NewSimLLM(),
		Config:      ios.MustParse(paperISPOut),
		RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return true, nil }),
		SpaceCache:  symbolic.NewSpaceCache(),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Updates != 2 {
		t.Errorf("updates = %d, want 2", st.Updates)
	}
	// Last writer wins: the final config holds at least one insertion.
	final := s.CurrentConfig()
	if n := len(final.RouteMaps["ISP_OUT"].Stanzas); n < 4 {
		t.Errorf("final map has %d stanzas, want >= 4", n)
	}
}

// TestConcurrentSessionsSharedCache runs separate sessions over one shared
// SpaceCache (run under -race), the daemon's configuration.
func TestConcurrentSessionsSharedCache(t *testing.T) {
	cache := symbolic.NewSpaceCache()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Session{
				Client:      llm.NewSimLLM(),
				Config:      ios.MustParse(paperISPOut),
				RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return true, nil }),
				SpaceCache:  cache,
			}
			if _, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("shared cache was never consulted")
	}
}

// garbageClassifier answers every request with text that is not a valid
// intent kind.
type garbageClassifier struct{}

func (garbageClassifier) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{Content: "  poetry \n"}, nil
}

// TestClassifierGarbage pins the error path when the classifier returns
// neither "acl" nor "route-map": the message must quote the (trimmed)
// classifier output.
func TestClassifierGarbage(t *testing.T) {
	s := &Session{
		Client: garbageClassifier{},
		Config: ios.MustParse(paperISPOut),
	}
	_, err := s.Submit(context.Background(), "do something", "ISP_OUT")
	if err == nil {
		t.Fatal("expected an error for unclassifiable intent")
	}
	if !strings.Contains(err.Error(), `"poetry"`) {
		t.Errorf("error %q does not quote the trimmed classifier output", err)
	}
}

// TestCachedSessionMatchesUncached: the same walkthrough with and without a
// SpaceCache must yield semantically identical configurations and identical
// question counts. The update verifies and disambiguates in one space: the
// warm run builds it (one miss) and the cached run finds it (one hit).
func TestCachedSessionMatchesUncached(t *testing.T) {
	run := func(cache *symbolic.SpaceCache) *UpdateResult {
		t.Helper()
		s := newPaperSession(t, llm.NewSimLLM())
		s.SpaceCache = cache
		res, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	cache := symbolic.NewSpaceCache()
	warm := run(cache) // populates
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("warm run: %+v, want 0 hits and 1 miss", st)
	}
	cached := run(cache) // hits
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cached run: %+v, want 1 hit and no further miss", st)
	}
	for _, res := range []*UpdateResult{warm, cached} {
		if res.RouteInsert.Position != plain.RouteInsert.Position {
			t.Errorf("position %d (cached) vs %d (plain)", res.RouteInsert.Position, plain.RouteInsert.Position)
		}
		if len(res.RouteInsert.Questions) != len(plain.RouteInsert.Questions) {
			t.Errorf("questions %d (cached) vs %d (plain)", len(res.RouteInsert.Questions), len(plain.RouteInsert.Questions))
		}
		mustEquivalentMaps(t, res.Config, plain.Config, "ISP_OUT")
	}
}
