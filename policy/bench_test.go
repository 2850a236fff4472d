package policy

import (
	"math/rand"
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/route"
)

// BenchmarkEvalRouteMap measures concrete first-match evaluation with cached
// regex automata.
func BenchmarkEvalRouteMap(b *testing.B) {
	cfg := ios.MustParse(paperISPOut)
	ev := NewEvaluator(cfg)
	rm := cfg.RouteMaps["ISP_OUT"]
	rng := rand.New(rand.NewSource(1))
	routes := make([]route.Route, 64)
	for i := range routes {
		routes[i] = testgen.Route(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalRouteMap(rm, routes[i%len(routes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorFirstEval times the first EvalRouteMap on a new
// evaluator: with a private table it compiles every regex the map reaches;
// with a warm shared table (a RouteSpace's, in the disambiguation loop) it
// compiles none.
func BenchmarkEvaluatorFirstEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := testgen.Config(rng, "RM", 8)
	rm := cfg.RouteMaps["RM"]
	routes := make([]route.Route, 64)
	for i := range routes {
		routes[i] = testgen.Route(rng)
	}
	b.Run("private", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewEvaluator(cfg).EvalRouteMap(rm, routes[i%len(routes)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		warm := ciscorx.NewMemo()
		for _, r := range routes {
			if _, err := NewEvaluatorWith(cfg, warm).EvalRouteMap(rm, r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewEvaluatorWith(cfg, warm).EvalRouteMap(rm, routes[i%len(routes)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalACL measures concrete ACL evaluation.
func BenchmarkEvalACL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := testgen.ACL(rng, "A", 10)
	acl := cfg.ACLs["A"]
	pk := testgen.Packet(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EvalACL(acl, pk)
	}
}
