package disambig

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

// These tests pin the SpaceCache's contract: a disambiguation run drawing
// its symbolic universe from the cache must be bit-for-bit indistinguishable
// from one building the universe fresh — same insertion position, same
// overlaps, same questions, same witnesses.

// TestCachedWalkthroughIdentical replays the §2.1 walkthrough cached and
// uncached and requires identical outcomes, twice over so the second cached
// pass exercises an actual hit.
func TestCachedWalkthroughIdentical(t *testing.T) {
	cache := symbolic.NewSpaceCache()
	for pass := 0; pass < 2; pass++ {
		for targetPos := 0; targetPos <= 3; targetPos++ {
			orig := ios.MustParse(paperISPOut)
			snippet := ios.MustParse(paperSnippet)
			target := figure2(t, targetPos)

			plain, err := InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
			if err != nil {
				t.Fatal(err)
			}
			cached, err := InsertRouteMapStanzaStrategyCached(StrategyBinary, cache, orig, "ISP_OUT", snippet, "SET_METRIC", NewSimUserRouteMap(target, "ISP_OUT"))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Position != cached.Position {
				t.Errorf("pass %d target %d: position %d (plain) vs %d (cached)", pass, targetPos, plain.Position, cached.Position)
			}
			if !reflect.DeepEqual(plain.Overlaps, cached.Overlaps) {
				t.Errorf("pass %d target %d: overlaps %v vs %v", pass, targetPos, plain.Overlaps, cached.Overlaps)
			}
			if !reflect.DeepEqual(plain.Questions, cached.Questions) {
				t.Errorf("pass %d target %d: questions (with witnesses) diverge:\n%v\nvs\n%v", pass, targetPos, plain.Questions, cached.Questions)
			}
			mustEquivalent(t, plain.Config, cached.Config, "ISP_OUT")
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("second pass produced no cache hits: %+v", st)
	}
}

// TestQuickCachedInsertionOverWorkload is the property-style sweep: random
// generated maps and the cloud-corpus archetypes, inserted into with a
// shared cache, must match the uncached runs exactly.
func TestQuickCachedInsertionOverWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cache := symbolic.NewSpaceCache()

	var trials []struct {
		orig    *ios.Config
		mapName string
	}
	for i := 0; i < 6; i++ {
		trials = append(trials, struct {
			orig    *ios.Config
			mapName string
		}{testgen.Config(rng, "RM", 3+rng.Intn(3)), "RM"})
	}
	corpus := workload.Cloud(7, 0, 12)
	for i, cfg := range corpus.RouteMapConfigs {
		for name := range cfg.RouteMaps {
			trials = append(trials, struct {
				orig    *ios.Config
				mapName string
			}{cfg, name})
		}
		if i >= 5 {
			break
		}
	}

	for i, tr := range trials {
		// extractSnippet keeps only the directly-matched lists; regenerate
		// when the stanza references something else (e.g. a next-hop list).
		snippet := extractSnippet(testgen.Config(rng, "SNIP", 1))
		for snippet.Validate() != nil {
			snippet = extractSnippet(testgen.Config(rng, "SNIP", 1))
		}
		// A stateless always-bottom oracle keeps the two runs comparable
		// question-for-question.
		oracle := FuncRouteOracle(func(q RouteQuestion) (bool, error) { return false, nil })
		plain, err := InsertRouteMapStanza(tr.orig, tr.mapName, snippet, "SNIP", oracle)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		cached, err := InsertRouteMapStanzaStrategyCached(StrategyBinary, cache, tr.orig, tr.mapName, snippet, "SNIP", oracle)
		if err != nil {
			t.Fatalf("trial %d (cached): %v", i, err)
		}
		if plain.Position != cached.Position || !reflect.DeepEqual(plain.Overlaps, cached.Overlaps) {
			t.Errorf("trial %d: pos/overlaps %d %v (plain) vs %d %v (cached)",
				i, plain.Position, plain.Overlaps, cached.Position, cached.Overlaps)
		}
		if !reflect.DeepEqual(plain.Questions, cached.Questions) {
			t.Errorf("trial %d: questions diverge", i)
		}
		mustEquivalent(t, plain.Config, cached.Config, tr.mapName)
	}
}
