package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/symbolic"
)

// Strategy selects a disambiguation algorithm; used by the ablation benches
// comparing question counts.
type Strategy int

// Disambiguation strategies.
const (
	// StrategyBinary is the §4 binary search (the contribution).
	StrategyBinary Strategy = iota
	// StrategyLinear probes every distinguishing overlap top-down until the
	// user picks the new stanza — the obvious one-question-per-overlap
	// baseline.
	StrategyLinear
	// StrategyTopBottom reproduces the paper's prototype: only the top and
	// bottom placements are considered, resolved with at most one question
	// (§2.2: "our disambiguator prototype only supports stanza insertions at
	// the top or bottom").
	StrategyTopBottom
)

func (s Strategy) String() string {
	switch s {
	case StrategyBinary:
		return "binary"
	case StrategyLinear:
		return "linear"
	case StrategyTopBottom:
		return "top-bottom"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// InsertRouteMapStanzaStrategyCached is InsertRouteMapStanzaStrategyTraced
// without tracing.
func InsertRouteMapStanzaStrategyCached(strategy Strategy, cache *symbolic.SpaceCache, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return InsertRouteMapStanzaStrategyTraced(strategy, cache, orig, mapName, snippet, snippetMap, oracle, nil)
}

// InsertRouteMapStanzaStrategyTraced inserts with strategy, drawing the
// symbolic universe from cache (which may be nil) and recording the
// disambiguation workload under sp (which may be nil): BDD counters for the
// overlap analysis, one "question-wait" child span per oracle round trip,
// and an "insert" child span for the final placement.
func InsertRouteMapStanzaStrategyTraced(strategy Strategy, cache *symbolic.SpaceCache, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle, sp *obs.Span) (*RouteResult, error) {
	if strategy == StrategyTopBottom {
		return insertTopBottom(cache, sp, orig, mapName, snippet, snippetMap, oracle)
	}
	return insertWithSearch(cache, sp, orig, mapName, snippet, snippetMap, oracle, strategy)
}

// searchGap is the §4 gap search shared by route maps, ACLs and the list
// families. Probes 0..n-1 are the distinguishing overlaps in rule order;
// gap g means the new rule goes below probes 0..g-1 and above probes g..,
// so ask(i) — show probe i, report whether the user prefers the new rule —
// is monotone in i. StrategyLinear asks at the low end of the undecided
// range, i.e. top-down until the first "yes"; any other strategy bisects,
// needing ⌈log₂(n+1)⌉ questions. meter (nil when untraced) records how much
// each answer narrows the range.
func searchGap(strategy Strategy, n int, ask func(i int) (bool, error), meter *ambiguity.Meter) (int, error) {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if strategy == StrategyLinear {
			mid = lo
		}
		preferNew, err := ask(mid)
		if err != nil {
			return 0, err
		}
		if preferNew {
			meter.Question(lo, hi, lo, mid, true)
			hi = mid
		} else {
			meter.Question(lo, hi, mid+1, hi, false)
			lo = mid + 1
		}
	}
	return lo, nil
}

// placement is the outcome of place: the rules of the distinguishing
// overlaps, the questions asked in order, the run's ledger (nil when
// untraced) and the index the new rule takes in the rule list.
type placement[Q any] struct {
	overlaps  []int
	questions []Q
	ledger    *ambiguity.Ledger
	pos       int
}

// place is the §4 placement step every rule kind shares: it gap-searches
// probes with strategy, asking each question through choose under a timed
// span keyed by key (see ask), then seals meter's ledger onto sp. Callers
// wrap their oracle in a closure: a method value would panic on a nil
// oracle even when no question is asked.
func place[Q any](sp *obs.Span, key string, strategy Strategy, probes []probe[Q], meter *ambiguity.Meter, choose func(Q) (bool, error)) (placement[Q], error) {
	var pl placement[Q]
	for _, p := range probes {
		pl.overlaps = append(pl.overlaps, p.rule)
	}
	gap, err := searchGap(strategy, len(probes), func(i int) (bool, error) {
		p := probes[i]
		preferNew, err := ask(sp, key, p.rule, choose, p.question)
		if err == nil {
			pl.questions = append(pl.questions, p.question)
		}
		return preferNew, err
	}, meter)
	if err != nil {
		return pl, err
	}
	// The search runs the undecided range dry, so the residual is the empty
	// range.
	pl.ledger = meter.Finish(gap, gap)
	ambiguity.Annotate(sp, pl.ledger)
	if gap > 0 {
		pl.pos = probes[gap-1].rule + 1
	}
	return pl, nil
}

// ask poses q through choose, timing the round trip as a "question-wait"
// child of sp that records the probed rule under key ("probed-stanza" or
// "probed-entry") — for the daemon's async oracle this is the operator's
// think time. With sp nil no span is created.
func ask[Q any](sp *obs.Span, key string, rule int, choose func(Q) (bool, error), q Q) (bool, error) {
	qsp := sp.Child("question-wait")
	qsp.SetInt(key, int64(rule))
	preferNew, err := choose(q)
	qsp.SetBool("prefer-new", preferNew)
	qsp.End()
	return preferNew, err
}

// startMeter starts the ambiguity ledger over the probes' regions in pool,
// or returns nil when sp is nil: the ledger rides the observability path.
// The regions must be pairwise disjoint, as ambiguity.NewMeter requires; a
// probe's region lies in its rule's first-match region, so they are.
func startMeter[Q any](sp *obs.Span, pool *bdd.Pool, kind string, strategy Strategy, probes []probe[Q]) *ambiguity.Meter {
	if sp == nil {
		return nil
	}
	regions := make([]bdd.Node, len(probes))
	for i, p := range probes {
		regions[i] = p.region
	}
	return ambiguity.NewMeter(pool, kind, strategy.String(), regions)
}

// insertTopBottom reproduces the paper's prototype: build the top-inserted
// and bottom-inserted candidates, compare them, and ask at most one
// question. When the candidates differ on inputs the user assigns to
// *neither* extreme consistently, the restriction simply cannot express the
// intent — exactly the limitation §7 lists as future work.
func insertTopBottom(cache *symbolic.SpaceCache, sp *obs.Span, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	prep, err := prepare(orig, mapName, snippet, snippetMap)
	if err != nil {
		return nil, err
	}
	work, rm, newStanza := prep.work, prep.rm, prep.stanza

	// When tracing is on, measure the same distinguishing regions the gap
	// searches use, so the ledger compares strategies on equal terms.
	var meter *ambiguity.Meter
	var probes []probe[RouteQuestion]
	if sp != nil {
		probes, meter, err = collectProbesMetered(cache, sp, work, rm, newStanza, StrategyTopBottom)
		if err != nil {
			return nil, err
		}
	}

	top := work.Clone()
	top.RouteMaps[mapName].InsertStanza(0, newStanza.Clone())
	bottom := work.Clone()
	bottom.RouteMaps[mapName].InsertStanza(len(rm.Stanzas), newStanza.Clone())

	space, err := cache.Acquire(top, bottom)
	if err != nil {
		return nil, err
	}
	defer cache.Release(space)
	defer space.ObserveInto(sp, space.Pool.Counters())
	diffs, err := analysis.CompareRouteMaps(space, top, top.RouteMaps[mapName], bottom, bottom.RouteMaps[mapName], 1)
	if err != nil {
		return nil, err
	}
	result := &RouteResult{Renames: prep.renames}
	if len(diffs) == 0 {
		// Equivalent: place at the bottom. The equivalence proof resolves
		// the whole candidate space without a question.
		result.Ambiguity = meter.Finish(0, 0)
		ambiguity.Annotate(sp, result.Ambiguity)
		result.Config = bottom
		result.Position = len(rm.Stanzas)
		return result, nil
	}
	d := diffs[0]
	q := RouteQuestion{
		Input:      d.Input,
		NewVerdict: d.VerdictA, // top placement: new stanza wins
		OldVerdict: d.VerdictB, // bottom placement: existing stanzas win
	}
	preferNew, err := ask(sp, "probed-stanza", q.ProbedStanza, oracle.ChooseRoute, q)
	if err != nil {
		return nil, err
	}
	result.Questions = append(result.Questions, q)
	if meter != nil {
		// The witness decides placement relative to its own first-match
		// stanza (and, by monotonicity, every probe beyond it in the chosen
		// direction). Probes on the unasked side are *forced* to an extreme
		// by the prototype's top-or-bottom restriction, not resolved — they
		// stay on the ledger as residual ambiguity, the measured signature
		// of the §7 limitation.
		ev := policy.NewEvaluatorWith(work, space.Automata())
		v, everr := ev.EvalRouteMap(rm, d.Input)
		if everr != nil {
			return nil, everr
		}
		below, atOrBelow := 0, 0
		for _, p := range probes {
			if p.rule < v.Index {
				below++
			}
			if p.rule <= v.Index {
				atOrBelow++
			}
		}
		lo2, hi2 := 0, below // top placement: probes above the witness stay undecided
		if !preferNew {
			lo2, hi2 = atOrBelow, len(probes) // bottom: probes below it do
		}
		meter.Question(0, len(probes), lo2, hi2, preferNew)
		result.Ambiguity = meter.Finish(lo2, hi2)
		ambiguity.Annotate(sp, result.Ambiguity)
	}
	if preferNew {
		result.Config = top
		result.Position = 0
	} else {
		result.Config = bottom
		result.Position = len(rm.Stanzas)
	}
	return result, nil
}

// ---------- shared preparation ----------

// probe is one distinguishing overlap of a route map, ACL or list: the rule
// whose order relative to the new rule it resolves, the question that shows
// it, and the region the question was drawn from — the ambiguity meter's unit
// of measurement, valid only while the symbolic space it was built in is held.
type probe[Q any] struct {
	rule     int
	question Q
	region   bdd.Node
}

type prepared struct {
	work    *ios.Config
	rm      *ios.RouteMap
	stanza  *ios.Stanza
	renames map[string]string
}

// prepare clones, renames and merges the snippet — the common preamble of
// every insertion strategy.
func prepare(orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string) (*prepared, error) {
	if _, ok := orig.RouteMaps[mapName]; !ok {
		return nil, fmt.Errorf("disambig: route-map %q not in configuration", mapName)
	}
	snipRM, ok := snippet.RouteMaps[snippetMap]
	if !ok {
		return nil, fmt.Errorf("disambig: snippet lacks route-map %q", snippetMap)
	}
	if len(snipRM.Stanzas) != 1 {
		return nil, fmt.Errorf("disambig: snippet has %d stanzas, want exactly 1", len(snipRM.Stanzas))
	}
	work := orig.Clone()
	snip := snippet.Clone()
	renames := map[string]string{}
	taken := map[string]bool{}
	for _, name := range snip.ListNames() {
		fresh := nextListName(work, taken)
		snip.RenameList(name, fresh)
		renames[name] = fresh
		taken[fresh] = true
	}
	stanza := snip.RouteMaps[snippetMap].Stanzas[0].Clone()
	snip.RemoveRouteMap(snippetMap)
	if err := work.Merge(snip); err != nil {
		return nil, fmt.Errorf("disambig: merging snippet lists: %w", err)
	}
	return &prepared{work: work, rm: work.RouteMaps[mapName], stanza: stanza, renames: renames}, nil
}

// insertWithSearch is the gap-search flow for StrategyBinary and
// StrategyLinear.
func insertWithSearch(cache *symbolic.SpaceCache, sp *obs.Span, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle, strategy Strategy) (*RouteResult, error) {
	prep, err := prepare(orig, mapName, snippet, snippetMap)
	if err != nil {
		return nil, err
	}
	work, rm, newStanza := prep.work, prep.rm, prep.stanza
	probes, meter, err := collectProbesMetered(cache, sp, work, rm, newStanza, strategy)
	if err != nil {
		return nil, err
	}
	pl, err := place(sp, "probed-stanza", strategy, probes, meter, func(q RouteQuestion) (bool, error) { return oracle.ChooseRoute(q) })
	if err != nil {
		return nil, err
	}
	insSp := sp.Child("insert")
	rm.InsertStanza(pl.pos, newStanza)
	if err := work.Validate(); err != nil {
		insSp.End()
		return nil, fmt.Errorf("disambig: post-insertion validation: %w", err)
	}
	insSp.SetInt("position", int64(pl.pos))
	insSp.End()
	return &RouteResult{Config: work, Position: pl.pos, Questions: pl.questions, Overlaps: pl.overlaps,
		Renames: prep.renames, Ambiguity: pl.ledger}, nil
}

// newStanzaWrapper wraps the detached new stanza in a throwaway config so
// the route-space construction collects its set-community literals into the
// atomic-predicate universe (the stanza is not part of any route-map yet).
func newStanzaWrapper(newStanza *ios.Stanza) *ios.Config {
	wrapper := ios.NewConfig()
	wrapper.AddRouteMap("__NEW__").Stanzas = []*ios.Stanza{newStanza}
	return wrapper
}

// collectProbesMetered acquires the symbolic space, collects the probes,
// and — when tracing is on — builds the ambiguity meter over their
// distinguishing regions before the space is released. The meter counts
// every region up front, so nothing touches the pool after release (the
// search may park on oracle questions for minutes).
func collectProbesMetered(cache *symbolic.SpaceCache, sp *obs.Span, work *ios.Config, rm *ios.RouteMap, newStanza *ios.Stanza, strategy Strategy) ([]probe[RouteQuestion], *ambiguity.Meter, error) {
	space, err := cache.Acquire(work, newStanzaWrapper(newStanza))
	if err != nil {
		return nil, nil, err
	}
	before := space.Pool.Counters()
	defer cache.Release(space)
	defer func() { space.ObserveInto(sp, before) }()
	probes, err := collectProbes(space, work, rm, newStanza)
	if err != nil {
		return nil, nil, err
	}
	return probes, startMeter(sp, space.Pool, "route-map", strategy, probes), nil
}

// collectProbes finds the distinguishing overlaps with a confirmed
// differential example each, in the given symbolic space.
func collectProbes(space *symbolic.RouteSpace, work *ios.Config, rm *ios.RouteMap, newStanza *ios.Stanza) ([]probe[RouteQuestion], error) {
	// The map is encoded even when the new stanza is not, so the map's own
	// errors are reported first.
	predNew, newErr := space.StanzaPred(work, newStanza)
	// Probes need first-match regions only inside the new stanza's routes.
	regions, err := space.FirstMatchWithin(work, rm, space.Pool.And(predNew, space.Valid))
	if err != nil {
		return nil, err
	}
	if newErr != nil {
		return nil, newErr
	}
	ev := policy.NewEvaluatorWith(work, space.Automata())
	var probes []probe[RouteQuestion]
	for i, st := range rm.Stanzas {
		outEq, err := space.OutputEqual(newStanza, st)
		if err != nil {
			return nil, err
		}
		distinguishing := space.Pool.Diff(regions[i], outEq)
		q, found, err := confirmQuestion(space, ev, rm, newStanza, i, distinguishing)
		if err != nil {
			return nil, err
		}
		if found {
			probes = append(probes, probe[RouteQuestion]{rule: i, question: q, region: distinguishing})
		}
	}
	return probes, nil
}
