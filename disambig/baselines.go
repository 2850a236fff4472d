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

// InsertRouteMapStanzaLinear is InsertRouteMapStanza with a linear scan in
// place of binary search: it asks one question per distinguishing overlap,
// from the top, placing the new stanza immediately before the first overlap
// the user assigns to it.
func InsertRouteMapStanzaLinear(orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return insertWithSearch(nil, nil, orig, mapName, snippet, snippetMap, oracle, StrategyLinear)
}

// InsertRouteMapStanzaStrategy dispatches on strategy.
func InsertRouteMapStanzaStrategy(strategy Strategy, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return InsertRouteMapStanzaStrategyCached(strategy, nil, orig, mapName, snippet, snippetMap, oracle)
}

// InsertRouteMapStanzaStrategyCached dispatches on strategy, drawing the
// symbolic universe from cache (which may be nil).
func InsertRouteMapStanzaStrategyCached(strategy Strategy, cache *symbolic.SpaceCache, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return InsertRouteMapStanzaStrategyTraced(strategy, cache, orig, mapName, snippet, snippetMap, oracle, nil)
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

// InsertRouteMapStanzaTopBottom reproduces the paper's prototype: build the
// top-inserted and bottom-inserted candidates, compare them, and ask at most
// one question. When the candidates differ on inputs the user assigns to
// *neither* extreme consistently, the restriction simply cannot express the
// intent — exactly the limitation §7 lists as future work.
func InsertRouteMapStanzaTopBottom(orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return insertTopBottom(nil, nil, orig, mapName, snippet, snippetMap, oracle)
}

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
	preferNew, err := chooseRoute(oracle, sp, q)
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
	result := &RouteResult{Renames: prep.renames}
	for _, p := range probes {
		result.Overlaps = append(result.Overlaps, p.rule)
	}
	gap, err := searchGap(strategy, len(probes), func(i int) (bool, error) {
		q := probes[i].question
		preferNew, err := chooseRoute(oracle, sp, q)
		if err == nil {
			result.Questions = append(result.Questions, q)
		}
		return preferNew, err
	}, meter)
	if err != nil {
		return nil, err
	}
	// The search runs the undecided range dry, so the residual is the empty
	// range.
	result.Ambiguity = meter.Finish(gap, gap)
	ambiguity.Annotate(sp, result.Ambiguity)
	pos := 0
	if gap > 0 {
		pos = probes[gap-1].rule + 1
	}
	insSp := sp.Child("insert")
	rm.InsertStanza(pos, newStanza)
	if err := work.Validate(); err != nil {
		insSp.End()
		return nil, fmt.Errorf("disambig: post-insertion validation: %w", err)
	}
	insSp.SetInt("position", int64(pos))
	insSp.End()
	result.Config = work
	result.Position = pos
	return result, nil
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
// distinguishing regions before the space is released. The meter
// precomputes every interval measurement, so nothing touches the pool
// after release (the search may park on oracle questions for minutes).
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
	var meter *ambiguity.Meter
	if sp != nil {
		regions := make([]bdd.Node, len(probes))
		for i, p := range probes {
			regions[i] = p.region
		}
		meter = ambiguity.NewMeter(space.Pool, "route-map", strategy.String(), regions)
	}
	return probes, meter, nil
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
