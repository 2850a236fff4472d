// Package exper contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation: the Section 3 overlap measurements
// over the synthetic cloud/campus corpora, the Figure 4 synthesis
// statistics, and the Section 4 question-complexity ablation.
package exper

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/evaltopo"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

// ACLAggregate summarizes the ACL overlap profile of a corpus (§3 rows).
type ACLAggregate struct {
	Examined int
	// WithConflict counts ACLs with ≥1 conflicting overlap (the paper's
	// notion of ACL overlap: different actions on a shared packet).
	WithConflict int
	// ConflictOver20 counts ACLs with >20 conflicting pairs.
	ConflictOver20 int
	// WithNonTrivial / NonTrivialOver20 discard proper-subset pairs
	// (§3.2's refined measurement).
	WithNonTrivial   int
	NonTrivialOver20 int
	// MaxPairs is the largest per-ACL conflicting-pair count (the paper's
	// ">100 pairs" edge ACL).
	MaxPairs int
}

// AnalyzeACLCorpus runs the overlap analysis over every ACL config.
func AnalyzeACLCorpus(cfgs []*ios.Config) ACLAggregate {
	agg := ACLAggregate{}
	space := symbolic.NewACLSpace()
	for _, cfg := range cfgs {
		for _, acl := range cfg.ACLs {
			st := analysis.AnalyzeACL(space, acl)
			agg.Examined++
			if st.Conflicting > 0 {
				agg.WithConflict++
			}
			if st.Conflicting > 20 {
				agg.ConflictOver20++
			}
			if st.NonTrivial > 0 {
				agg.WithNonTrivial++
			}
			if st.NonTrivial > 20 {
				agg.NonTrivialOver20++
			}
			if st.Conflicting > agg.MaxPairs {
				agg.MaxPairs = st.Conflicting
			}
		}
	}
	return agg
}

// RMAggregate summarizes the route-map overlap profile of a corpus.
type RMAggregate struct {
	Examined    int
	WithOverlap int
	Over20      int
	MaxOverlaps int
	// TripletDetail captures the campus special case: overlapping pair
	// count and conflicting count of the most-overlapping route-map.
	MaxConflicting int
}

// AnalyzeRouteMapCorpus runs the overlap analysis over every route-map
// config. Each config gets its own route space (mirroring per-policy
// analysis in the paper's Batfish extension).
func AnalyzeRouteMapCorpus(cfgs []*ios.Config) (RMAggregate, error) {
	agg := RMAggregate{}
	for _, cfg := range cfgs {
		space, err := symbolic.NewRouteSpace(cfg)
		if err != nil {
			return agg, err
		}
		for _, rm := range cfg.RouteMaps {
			st, err := analysis.AnalyzeRouteMap(space, cfg, rm)
			if err != nil {
				return agg, err
			}
			agg.Examined++
			if st.Overlaps > 0 {
				agg.WithOverlap++
			}
			if st.Overlaps > 20 {
				agg.Over20++
			}
			if st.Overlaps > agg.MaxOverlaps {
				agg.MaxOverlaps = st.Overlaps
				agg.MaxConflicting = st.Conflicting
			}
		}
	}
	return agg, nil
}

// ---------- §3 experiment drivers ----------

// CloudACLExperiment regenerates the §3.1 ACL measurement at the given scale
// (pass workload.CloudACLCount for the paper's full size).
func CloudACLExperiment(seed int64, n int) ACLAggregate {
	corpus := workload.Cloud(seed, n, 0)
	return AnalyzeACLCorpus(corpus.ACLConfigs)
}

// CloudRouteMapExperiment regenerates the §3.1 route-map measurement.
func CloudRouteMapExperiment(seed int64, n int) (RMAggregate, error) {
	corpus := workload.Cloud(seed, 0, n)
	return AnalyzeRouteMapCorpus(corpus.RouteMapConfigs)
}

// CampusACLExperiment regenerates the §3.2 ACL measurement.
func CampusACLExperiment(seed int64, n int) ACLAggregate {
	corpus := workload.Campus(seed, n, 0)
	return AnalyzeACLCorpus(corpus.ACLConfigs)
}

// CampusRouteMapExperiment regenerates the §3.2 route-map measurement.
func CampusRouteMapExperiment(seed int64, n int) (RMAggregate, error) {
	corpus := workload.Campus(seed, 0, n)
	return AnalyzeRouteMapCorpus(corpus.RouteMapConfigs)
}

// WriteCloudACLTable prints the §3.1 ACL row next to the paper's numbers.
func WriteCloudACLTable(w io.Writer, agg ACLAggregate) {
	fmt.Fprintf(w, "§3.1 cloud ACLs | examined   | ≥1 overlap | >20 overlaps | max pairs\n")
	fmt.Fprintf(w, "paper        | 237           | 69         | 48           | >100\n")
	fmt.Fprintf(w, "measured     | %-13d | %-10d | %-12d | %d\n",
		agg.Examined, agg.WithConflict, agg.ConflictOver20, agg.MaxPairs)
}

// WriteCloudRMTable prints the §3.1 route-map row.
func WriteCloudRMTable(w io.Writer, agg RMAggregate) {
	fmt.Fprintf(w, "§3.1 cloud route-maps | examined | with overlaps | >20 overlaps\n")
	fmt.Fprintf(w, "paper                 | 800      | 140           | 3\n")
	fmt.Fprintf(w, "measured              | %-8d | %-13d | %d\n",
		agg.Examined, agg.WithOverlap, agg.Over20)
}

// WriteCampusACLTable prints the §3.2 ACL row (percentages, like the paper).
func WriteCampusACLTable(w io.Writer, agg ACLAggregate) {
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	fmt.Fprintf(w, "§3.2 campus ACL | examined | %%conflicting | %%of-those>20 | %%non-trivial | %%of-those>20\n")
	fmt.Fprintf(w, "paper           | 11088    | 37.7         | 27.0         | 18.6         | 16.3\n")
	fmt.Fprintf(w, "measured        | %-8d | %-12.1f | %-12.1f | %-12.1f | %.1f\n",
		agg.Examined,
		pct(agg.WithConflict, agg.Examined),
		pct(agg.ConflictOver20, agg.WithConflict),
		pct(agg.WithNonTrivial, agg.Examined),
		pct(agg.NonTrivialOver20, agg.WithNonTrivial))
}

// WriteCampusRMTable prints the §3.2 route-map row.
func WriteCampusRMTable(w io.Writer, agg RMAggregate) {
	fmt.Fprintf(w, "§3.2 campus route-maps | examined | with overlaps | max pairs | conflicting-of-max\n")
	fmt.Fprintf(w, "paper                  | 169      | 2             | 3         | 2\n")
	fmt.Fprintf(w, "measured               | %-8d | %-13d | %-9d | %d\n",
		agg.Examined, agg.WithOverlap, agg.MaxOverlaps, agg.MaxConflicting)
}

// ---------- Figure 4 driver ----------

// Figure4 runs the §5 evaluation and prints the statistics table next to the
// paper's numbers, plus the five policy checks.
func Figure4(ctx context.Context, w io.Writer) error {
	stats, checks, _, err := evaltopo.RunEvaluation(ctx, func() llm.Client { return llm.NewSimLLM() })
	if err != nil {
		return err
	}
	paper := map[string][3]int{"M": {4, 9, 5}, "R1": {5, 12, 6}, "R2": {5, 12, 6}}
	fmt.Fprintf(w, "Figure 4: Router | #Route-maps (paper) | #LLM calls (paper) | #Disambiguation (paper)\n")
	for _, s := range stats {
		p := paper[s.Router]
		fmt.Fprintf(w, "           %-5s | %d (%d)               | %d (%d)             | %d (%d)\n",
			s.Router, s.RouteMaps, p[0], s.LLMCalls, p[1], s.Disambiguations, p[2])
	}
	fmt.Fprintf(w, "\nGlobal policy validation (§5):\n")
	for _, c := range checks {
		status := "HOLDS"
		if !c.Holds {
			status = "VIOLATED: " + c.Details
		}
		fmt.Fprintf(w, "  %-36s %s\n", c.Name, status)
	}
	return nil
}

// ---------- §4 question-complexity ablation ----------

// QuestionCount is one data point of the ablation: overlapping-rule count k
// versus questions asked by a strategy.
type QuestionCount struct {
	Overlaps  int
	Questions int
}

// QuestionComplexity measures, for each k in sizes, how many questions each
// strategy asks to place a new stanza into a route-map with k distinguishing
// overlaps, with the target at the worst-case position.
func QuestionComplexity(sizes []int) (binary, linear []QuestionCount, err error) {
	for _, k := range sizes {
		orig, snippet := overlapLadder(k)
		// Worst case for binary search: target at the bottom gap.
		target := orig.Clone()
		prepareTarget(target, snippet, k)
		runOne := func(strategy disambig.Strategy) (int, error) {
			user := disambig.NewSimUserRouteMap(target, "RM")
			res, err := disambig.InsertRouteMapStanzaStrategyCached(strategy, nil, orig, "RM", snippet, "NEW", user)
			if err != nil {
				return 0, err
			}
			if len(res.Overlaps) != k {
				return 0, fmt.Errorf("exper: ladder(%d) produced %d overlaps", k, len(res.Overlaps))
			}
			return len(res.Questions), nil
		}
		qb, err := runOne(disambig.StrategyBinary)
		if err != nil {
			return nil, nil, err
		}
		ql, err := runOne(disambig.StrategyLinear)
		if err != nil {
			return nil, nil, err
		}
		binary = append(binary, QuestionCount{Overlaps: k, Questions: qb})
		linear = append(linear, QuestionCount{Overlaps: k, Questions: ql})
	}
	return binary, linear, nil
}

// overlapLadder builds a route-map with k stanzas that all distinguishably
// overlap a new community-matching stanza: stanza i matches exactly
// local-preference 101+i (so the first-match regions are disjoint and none
// is shadowed), and the new stanza sets a metric, so every placement is
// observably different.
func overlapLadder(k int) (orig, snippet *ios.Config) {
	orig = ios.NewConfig()
	rm := orig.AddRouteMap("RM")
	for i := 0; i < k; i++ {
		rm.Stanzas = append(rm.Stanzas, &ios.Stanza{
			Seq:     (i + 1) * 10,
			Permit:  true,
			Matches: []ios.Match{ios.MatchLocalPref{Value: uint32(101 + i)}},
		})
	}
	snippet = ios.MustParse(`ip community-list expanded NEW_C permit _77:7_
route-map NEW permit 10
 match community NEW_C
 set metric 999
`)
	return orig, snippet
}

// prepareTarget inserts the snippet stanza at the bottom gap of the ladder.
func prepareTarget(target *ios.Config, snippet *ios.Config, pos int) {
	target.AddCommunityList("NEW_C", true, ios.CommunityListEntry{Permit: true, Values: []string{"_77:7_"}})
	st := snippet.RouteMaps["NEW"].Stanzas[0].Clone()
	st.Matches = []ios.Match{ios.MatchCommunity{List: "NEW_C"}}
	target.RouteMaps["RM"].InsertStanza(pos, st)
}

// WriteQuestionTable prints the ablation series with the theoretical bound.
func WriteQuestionTable(w io.Writer, binary, linear []QuestionCount) {
	fmt.Fprintf(w, "§4 ablation: overlaps k | binary questions | ⌈log2(k+1)⌉ | linear questions\n")
	for i := range binary {
		k := binary[i].Overlaps
		fmt.Fprintf(w, "              %-9d | %-16d | %-11d | %d\n",
			k, binary[i].Questions, int(math.Ceil(math.Log2(float64(k+1)))), linear[i].Questions)
	}
}
