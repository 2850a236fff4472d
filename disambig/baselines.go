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
	in, err := PrepareRouteMapStanza(cache, orig, mapName, snippet, snippetMap)
	if err != nil {
		return nil, err
	}
	return in.Insert(strategy, oracle, sp)
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
func (in *RouteInsertion) insertTopBottom(sp *obs.Span, oracle RouteOracle) (*RouteResult, error) {
	work, rm, newStanza, mapName := in.work, in.rm, in.stanza, in.mapName

	// When tracing is on, measure the same distinguishing regions the gap
	// searches use, so the ledger compares strategies on equal terms.
	var meter *ambiguity.Meter
	var probes []probe[RouteQuestion]
	if sp != nil {
		var err error
		if probes, meter, err = in.probes(sp, StrategyTopBottom); err != nil {
			return nil, err
		}
	}
	// The comparison runs in a space of its own; give back one verification
	// left held.
	in.Release()

	top := work.Clone()
	top.RouteMaps[mapName].InsertStanza(0, newStanza.Clone())
	bottom := work.Clone()
	bottom.RouteMaps[mapName].InsertStanza(len(rm.Stanzas), newStanza.Clone())

	space, err := in.cache.Acquire(top, bottom)
	if err != nil {
		return nil, err
	}
	before := space.Pool.Counters()
	diffs, err := analysis.CompareRouteMaps(space, top, top.RouteMaps[mapName], bottom, bottom.RouteMaps[mapName], 1)
	// Give the space back before the question, as the gap searches do.
	automata := space.Automata()
	space.ObserveInto(sp, before)
	in.cache.Release(space)
	if err != nil {
		return nil, err
	}
	result := &RouteResult{Renames: in.renames}
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
		ev := policy.NewEvaluatorWith(work, automata)
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

// RouteInsertion is one route-map insertion made ready for §4 placement:
// the snippet's lists merged into a copy of the configuration under fresh
// names, the detached new stanza, and the symbolic space the placement
// probes in once it is checked out. An update verifies its snippet in that
// same space (Acquire with the spec's config), so it builds one universe,
// not two.
type RouteInsertion struct {
	work    *ios.Config
	mapName string
	rm      *ios.RouteMap
	stanza  *ios.Stanza
	renames map[string]string

	cache *symbolic.SpaceCache
	space *symbolic.RouteSpace // checked out from cache; nil when not held
}

// PrepareRouteMapStanza merges snippet's lists into a copy of orig under
// fresh names and detaches snippetMap's one stanza for insertion into
// mapName, drawing symbolic spaces from cache (which may be nil). orig is
// not mutated.
func PrepareRouteMapStanza(cache *symbolic.SpaceCache, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string) (*RouteInsertion, error) {
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
	names := snip.ListNames()
	fresh := freshListNames(work, len(names))
	renames := make(map[string]string, len(names))
	for i, name := range names {
		snip.RenameList(name, fresh[i])
		renames[name] = fresh[i]
	}
	stanza := snip.RouteMaps[snippetMap].Stanzas[0].Clone()
	snip.RemoveRouteMap(snippetMap)
	if err := work.Merge(snip); err != nil {
		return nil, fmt.Errorf("disambig: merging snippet lists: %w", err)
	}
	return &RouteInsertion{work: work, mapName: mapName, rm: work.RouteMaps[mapName], stanza: stanza, renames: renames, cache: cache}, nil
}

// Acquire checks out the insertion's space: one universe over the merged
// configuration, the new stanza and extra, appended last in that order. The
// placement probes in it and releases it before its first question, so the
// caller may use it until then (a Figure 1 update verifies the snippet in
// it, with the spec's config as extra). Patterns in extra that split no
// atom leave every atom, witness and question as they are without extra.
func (in *RouteInsertion) Acquire(extra ...*ios.Config) (*symbolic.RouteSpace, error) {
	cfgs := append([]*ios.Config{in.work, newStanzaWrapper(in.stanza)}, extra...)
	space, err := in.cache.Acquire(cfgs...)
	if err != nil {
		return nil, err
	}
	in.space = space
	return space, nil
}

// Release gives a held space back to the cache. Safe to call when none is
// held.
func (in *RouteInsertion) Release() {
	in.cache.Release(in.space)
	in.space = nil
}

// Insert places the new stanza with strategy, asking oracle, and records
// the disambiguation workload under sp (which may be nil). It probes in the
// held space, or checks one out with no extra configs, and releases it
// before the first question. It inserts into the insertion's copy of the
// configuration, so an insertion is placed once.
func (in *RouteInsertion) Insert(strategy Strategy, oracle RouteOracle, sp *obs.Span) (*RouteResult, error) {
	if strategy == StrategyTopBottom {
		return in.insertTopBottom(sp, oracle)
	}
	probes, meter, err := in.probes(sp, strategy)
	if err != nil {
		return nil, err
	}
	pl, err := place(sp, "probed-stanza", strategy, probes, meter, func(q RouteQuestion) (bool, error) { return oracle.ChooseRoute(q) })
	if err != nil {
		return nil, err
	}
	insSp := sp.Child("insert")
	in.rm.InsertStanza(pl.pos, in.stanza)
	if err := in.work.Validate(); err != nil {
		insSp.End()
		return nil, fmt.Errorf("disambig: post-insertion validation: %w", err)
	}
	insSp.SetInt("position", int64(pl.pos))
	insSp.End()
	return &RouteResult{Config: in.work, Position: pl.pos, Questions: pl.questions, Overlaps: pl.overlaps,
		Renames: in.renames, Ambiguity: pl.ledger}, nil
}

// newStanzaWrapper wraps the detached new stanza in a throwaway config so
// the route-space construction collects its set-community literals into the
// atomic-predicate universe (the stanza is not part of any route-map yet).
func newStanzaWrapper(newStanza *ios.Stanza) *ios.Config {
	wrapper := ios.NewConfig()
	wrapper.AddRouteMap("__NEW__").Stanzas = []*ios.Stanza{newStanza}
	return wrapper
}

// probes collects the probes in the insertion's space (checked out here
// when none is held) and — when tracing is on — builds the ambiguity meter
// over their distinguishing regions, then releases the space. The meter
// counts every region up front, so nothing touches the pool after release
// (the search may park on oracle questions for minutes).
func (in *RouteInsertion) probes(sp *obs.Span, strategy Strategy) ([]probe[RouteQuestion], *ambiguity.Meter, error) {
	space := in.space
	if space == nil {
		var err error
		if space, err = in.Acquire(); err != nil {
			return nil, nil, err
		}
	}
	before := space.Pool.Counters()
	defer in.Release()
	defer func() { space.ObserveInto(sp, before) }()
	probes, err := collectProbes(space, in.work, in.rm, in.stanza)
	if err != nil {
		return nil, nil, err
	}
	return probes, startMeter(sp, space.Pool, "route-map", strategy, probes), nil
}

// collectProbes finds the distinguishing overlaps with a confirmed
// differential example each, in the given symbolic space.
func collectProbes(space *symbolic.RouteSpace, work *ios.Config, rm *ios.RouteMap, newStanza *ios.Stanza) ([]probe[RouteQuestion], error) {
	// Probes need first-match regions only inside the new stanza's routes.
	regions, err := space.FirstMatchWithin(work, rm, newStanza)
	if err != nil {
		return nil, err
	}
	ev := policy.NewEvaluatorWith(work, space.Automata())
	var probes []probe[RouteQuestion]
	for i, st := range rm.Stanzas {
		if regions[i] == bdd.False {
			continue // no route of the new stanza reaches st
		}
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
