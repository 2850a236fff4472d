package policy

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/internal/testgen"
)

// TestSharedTableAgreesWithPrivate checks that an evaluator compiling
// through a table shared with other configurations' evaluators returns the
// same verdicts as one with a private table.
func TestSharedTableAgreesWithPrivate(t *testing.T) {
	shared := ciscorx.NewMemo()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testgen.Config(rng, "RM", 1+rng.Intn(6))
		rm := cfg.RouteMaps["RM"]
		private := NewEvaluator(cfg)
		viaShared := NewEvaluatorWith(cfg, shared)
		for i := 0; i < 50; i++ {
			r := testgen.Route(rng)
			a, errA := private.EvalRouteMap(rm, r)
			b, errB := viaShared.EvalRouteMap(rm, r)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d: errors %v / %v", seed, errA, errB)
			}
			if a.Index != b.Index || a.Permit != b.Permit || !a.Output.Equal(b.Output) {
				t.Fatalf("seed %d route %d: private %+v, shared %+v", seed, i, a, b)
			}
		}
	}
	if shared.Len() == 0 {
		t.Error("shared table stayed empty")
	}
}

// TestEvaluatorConcurrentUse evaluates one evaluator from several
// goroutines; run with -race.
func TestEvaluatorConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testgen.Config(rng, "RM", 6)
	rm := cfg.RouteMaps["RM"]
	ev := NewEvaluator(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if _, err := ev.EvalRouteMap(rm, testgen.Route(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
