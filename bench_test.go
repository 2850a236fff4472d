// Package clarify_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation, each
// delegating to the same experiment drivers the clarify-eval tool uses.
// Custom metrics report the quantities the paper tabulates (question counts,
// overlap counts, LLM calls) alongside wall-clock cost.
package clarify_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/evaltopo"
	"github.com/clarifynet/clarify/exper"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
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

const paperPrompt = `Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.`

const paperSnippet = `ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 seq 10 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
`

// BenchmarkPaperWalkthrough measures the §2 pipeline end to end: classify →
// synthesize → spec → verify → disambiguate → insert, on the paper's exact
// running example.
func BenchmarkPaperWalkthrough(b *testing.B) {
	var calls, questions int
	for i := 0; i < b.N; i++ {
		cfg := ios.MustParse(paperISPOut)
		session := &clarify.Session{
			Client: llm.NewSimLLM(),
			Config: cfg,
			RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
				return true, nil
			}),
		}
		res, err := session.Submit(context.Background(), paperPrompt, "ISP_OUT")
		if err != nil {
			b.Fatal(err)
		}
		st := session.Stats()
		calls = st.LLMCalls
		questions = len(res.RouteInsert.Questions)
	}
	b.ReportMetric(float64(calls), "llm-calls/update")
	b.ReportMetric(float64(questions), "questions/update")
}

// BenchmarkRepeatedUpdates measures the steady state the daemon serves:
// update after update against configurations whose regex/community universe
// is unchanged. The cached variant shares one SpaceCache across updates
// (as the server does), so every symbolic universe after the first is a
// cache hit; the uncached variant rebuilds each universe from scratch.
func BenchmarkRepeatedUpdates(b *testing.B) {
	run := func(b *testing.B, cache *symbolic.SpaceCache) {
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			session := &clarify.Session{
				Client: llm.NewSimLLM(),
				Config: ios.MustParse(paperISPOut),
				RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
					return true, nil
				}),
				SpaceCache: cache,
			}
			if _, err := session.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				b.Fatal(err)
			}
		}
		if cache != nil {
			st := cache.Stats()
			hits, misses = st.Hits, st.Misses
		}
		b.ReportMetric(float64(hits), "space-hits")
		b.ReportMetric(float64(misses), "space-misses")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, symbolic.NewSpaceCache()) })
}

// BenchmarkAmbiguityLedgerOverhead measures the information-gain ledger's
// cost on the uncached Submit path: the identical loop to
// BenchmarkRepeatedUpdates/uncached, once with no telemetry consumer (the
// meter never runs) and once traced (every update metered via model counting
// over the candidate space). The ledger-on variant must stay within 5% of
// ledger-off — the SatCount memo and the precomputed interval table are what
// keep it there.
func BenchmarkAmbiguityLedgerOverhead(b *testing.B) {
	run := func(b *testing.B, metered bool) {
		var bits float64
		var questions int
		for i := 0; i < b.N; i++ {
			session := &clarify.Session{
				Client: llm.NewSimLLM(),
				Config: ios.MustParse(paperISPOut),
				RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
					return true, nil
				}),
			}
			if metered {
				session.Observer = obs.SinkFunc(func(*obs.Trace) {})
			}
			res, err := session.Submit(context.Background(), paperPrompt, "ISP_OUT")
			if err != nil {
				b.Fatal(err)
			}
			if led := res.RouteInsert.Ambiguity; led != nil {
				bits = led.InitialBits
				questions = led.QuestionCount()
			} else if metered {
				b.Fatal("metered run produced no ledger")
			}
		}
		if metered {
			b.ReportMetric(bits, "initial-bits")
			b.ReportMetric(float64(questions), "questions/update")
		}
	}
	b.Run("ledger-off", func(b *testing.B) { run(b, false) })
	b.Run("ledger-on", func(b *testing.B) { run(b, true) })
}

// BenchmarkJournalOverhead measures the flight recorder's cost on the Submit
// path: the same cached walkthrough with journaling off, on with interval
// fsync (the daemon default), and on with always-fsync. The journal-off
// variant must stay within noise of BenchmarkRepeatedUpdates/cached.
func BenchmarkJournalOverhead(b *testing.B) {
	run := func(b *testing.B, jnl *journal.Journal) {
		cache := symbolic.NewSpaceCache()
		for i := 0; i < b.N; i++ {
			session := &clarify.Session{
				Client: llm.NewSimLLM(),
				Config: ios.MustParse(paperISPOut),
				RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
					return true, nil
				}),
				SpaceCache:     cache,
				Journal:        jnl,
				JournalSession: "bench",
			}
			if _, err := session.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				b.Fatal(err)
			}
		}
		if jnl != nil {
			st := jnl.Stats()
			b.ReportMetric(float64(st.Bytes)/float64(b.N), "journal-bytes/update")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	for _, policy := range []journal.FsyncPolicy{journal.FsyncInterval, journal.FsyncAlways} {
		b.Run("fsync-"+string(policy), func(b *testing.B) {
			jnl, err := journal.Open(journal.Options{Dir: b.TempDir(), Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			b.ResetTimer()
			run(b, jnl)
		})
	}
}

// BenchmarkFigure2Insertion measures the disambiguator alone (Figure 2):
// locating the insertion point of the verified snippet within ISP_OUT.
func BenchmarkFigure2Insertion(b *testing.B) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	oracle := disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return true, nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disambig.InsertRouteMapStanza(orig, "ISP_OUT", snippet, "SET_METRIC", oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareRoutePolicies measures the differential analysis that
// generates the paper's OPTION 1 / OPTION 2 examples.
func BenchmarkCompareRoutePolicies(b *testing.B) {
	top := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	resTop, err := disambig.InsertRouteMapStanzaStrategyCached(disambig.StrategyTopBottom, nil, top, "ISP_OUT", snippet, "SET_METRIC",
		disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return true, nil }))
	if err != nil {
		b.Fatal(err)
	}
	resBottom, err := disambig.InsertRouteMapStanzaStrategyCached(disambig.StrategyTopBottom, nil, top, "ISP_OUT", snippet, "SET_METRIC",
		disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return false, nil }))
	if err != nil {
		b.Fatal(err)
	}
	a, c := resTop.Config, resBottom.Config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := symbolic.NewRouteSpace(a, c)
		if err != nil {
			b.Fatal(err)
		}
		diffs, err := analysis.CompareRouteMaps(space, a, a.RouteMaps["ISP_OUT"], c, c.RouteMaps["ISP_OUT"], 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(diffs) == 0 {
			b.Fatal("expected differences")
		}
	}
}

// Corpus scale used by the §3 benchmarks (fractions match the paper; see
// cmd/clarify-eval -full for full-size runs).
const (
	benchCloudACLs  = 60
	benchCloudRMs   = 80
	benchCampusACLs = 200
	benchCampusRMs  = 169
)

// BenchmarkCloudACLOverlaps regenerates the §3.1 ACL table.
func BenchmarkCloudACLOverlaps(b *testing.B) {
	var agg exper.ACLAggregate
	for i := 0; i < b.N; i++ {
		agg = exper.CloudACLExperiment(1, benchCloudACLs)
	}
	b.ReportMetric(float64(agg.WithConflict), "acls-with-conflict")
	b.ReportMetric(float64(agg.ConflictOver20), "acls-over-20")
	b.ReportMetric(float64(agg.MaxPairs), "max-pairs")
	exper.WriteCloudACLTable(io.Discard, agg)
}

// BenchmarkCloudRouteMapOverlaps regenerates the §3.1 route-map table.
func BenchmarkCloudRouteMapOverlaps(b *testing.B) {
	var agg exper.RMAggregate
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = exper.CloudRouteMapExperiment(1, benchCloudRMs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(agg.WithOverlap), "rms-with-overlap")
	b.ReportMetric(float64(agg.Over20), "rms-over-20")
}

// BenchmarkCampusACLOverlaps regenerates the §3.2 ACL table.
func BenchmarkCampusACLOverlaps(b *testing.B) {
	var agg exper.ACLAggregate
	for i := 0; i < b.N; i++ {
		agg = exper.CampusACLExperiment(1, benchCampusACLs)
	}
	b.ReportMetric(100*float64(agg.WithConflict)/float64(agg.Examined), "pct-conflicting")
	b.ReportMetric(100*float64(agg.WithNonTrivial)/float64(agg.Examined), "pct-non-trivial")
}

// BenchmarkCampusRouteMapOverlaps regenerates the §3.2 route-map table.
func BenchmarkCampusRouteMapOverlaps(b *testing.B) {
	var agg exper.RMAggregate
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = exper.CampusRouteMapExperiment(1, benchCampusRMs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(agg.WithOverlap), "rms-with-overlap")
	b.ReportMetric(float64(agg.MaxOverlaps), "max-pairs")
}

// BenchmarkFigure4Synthesis regenerates the §5 evaluation: full incremental
// synthesis of the Figure 3 topology plus BGP convergence and policy checks.
func BenchmarkFigure4Synthesis(b *testing.B) {
	var totalCalls, totalQuestions int
	for i := 0; i < b.N; i++ {
		stats, checks, _, err := evaltopo.RunEvaluation(context.Background(),
			func() llm.Client { return llm.NewSimLLM() })
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range checks {
			if !c.Holds {
				b.Fatalf("policy %s violated", c.Name)
			}
		}
		totalCalls, totalQuestions = 0, 0
		for _, s := range stats {
			totalCalls += s.LLMCalls
			totalQuestions += s.Disambiguations
		}
	}
	b.ReportMetric(float64(totalCalls), "llm-calls/topology")
	b.ReportMetric(float64(totalQuestions), "questions/topology")
}

// BenchmarkDisambiguationQuestions is the §4 ablation: questions asked by
// binary search vs the linear baseline as the overlap count grows. The
// paper's claim is the logarithmic bound ⌈log₂(k+1)⌉.
func BenchmarkDisambiguationQuestions(b *testing.B) {
	for _, k := range []int{3, 7, 15, 31, 63} {
		for _, strat := range []disambig.Strategy{disambig.StrategyBinary, disambig.StrategyLinear} {
			b.Run(fmt.Sprintf("k=%d/%s", k, strat), func(b *testing.B) {
				var questions int
				for i := 0; i < b.N; i++ {
					binary, linear, err := exper.QuestionComplexity([]int{k})
					if err != nil {
						b.Fatal(err)
					}
					if strat == disambig.StrategyBinary {
						questions = binary[0].Questions
					} else {
						questions = linear[0].Questions
					}
				}
				b.ReportMetric(float64(questions), "questions")
				b.ReportMetric(math.Ceil(math.Log2(float64(k+1))), "log-bound")
			})
		}
	}
}

// BenchmarkAtomsUniverse sizes the symbolic encoder on the paper's example:
// variable and atom counts are the ablation quantity for the
// atomic-predicates design choice.
func BenchmarkAtomsUniverse(b *testing.B) {
	cfg := ios.MustParse(paperISPOut + paperSnippet)
	var space *symbolic.RouteSpace
	for i := 0; i < b.N; i++ {
		var err error
		space, err = symbolic.NewRouteSpace(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(space.NumVars()), "bdd-vars")
	b.ReportMetric(float64(space.PathAtomCount()), "path-atoms")
	b.ReportMetric(float64(space.CommAtomCount()), "community-atoms")
}
