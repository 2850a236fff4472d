package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/atoms"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/spec"
	"github.com/clarifynet/clarify/symbolic"
)

// layerDefs are the per-layer metrics of the traced run, in BENCHMARK.json
// order. Each is measured from outside its package, by timing calls into the
// package's public functions on the update's own inputs after the real
// Submit returned. A metric of a layer the workload does not cross reads 0.
var layerDefs = []struct{ name, unit string }{
	{"llm.calls_per_update", "count"},
	{"llm.complete_ms_per_update", "ms"},
	{"ios.parse_ms", "ms"},
	{"ios.print_ms", "ms"},
	{"spec.verify_ms", "ms"},
	{"rx.compile_ms_per_update", "ms"},
	{"rx.dfa_states_per_update", "count"},
	{"atoms.partition_ms_per_update", "ms"},
	{"atoms.count", "count"},
	{"symbolic.space_build_ms", "ms"},
	{"symbolic.acl_space_ms", "ms"},
	{"symbolic.cache_hit_ratio", "ratio"},
	{"symbolic.cache_acquires_per_update", "count"},
	{"bdd.nodes_per_update", "count"},
	{"bdd.ite_calls_per_update", "count"},
	{"bdd.unique_hit_ratio", "ratio"},
	{"disambig.insert_ms", "ms"},
	{"disambig.overlaps_per_update", "count"},
	{"clarify.submit_ms", "ms"},
	{"clarify.unattributed_ms", "ms"},
	{"server.request_ms.create", "ms"},
	{"server.request_ms.submit", "ms"},
	{"server.request_ms.poll_update", "ms"},
	{"server.request_ms.poll_question", "ms"},
	{"server.request_ms.answer", "ms"},
	{"server.polls_per_update", "count"},
	{"server.poll_useful_ratio", "ratio"},
	{"server.stage_ms.classify", "ms"},
	{"server.stage_ms.synthesize-attempt", "ms"},
	{"server.stage_ms.verify", "ms"},
	{"server.stage_ms.disambiguate", "ms"},
	{"server.stage_ms.question-wait", "ms"},
	{"server.space_cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"lb.proxy_ms", "ms"},
	{"answer_turn_ms_p50", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace_overhead_pct", "%"},
}

// perUpdate are the layer sums reported as means over traced updates.
var perUpdate = map[string]bool{
	"llm.calls_per_update": true, "llm.complete_ms_per_update": true,
	"ios.parse_ms": true, "ios.print_ms": true, "spec.verify_ms": true,
	"rx.compile_ms_per_update": true, "rx.dfa_states_per_update": true,
	"atoms.partition_ms_per_update": true, "atoms.count": true,
	"symbolic.space_build_ms": true, "symbolic.acl_space_ms": true,
	"symbolic.cache_acquires_per_update": true,
	"bdd.nodes_per_update":               true, "bdd.ite_calls_per_update": true,
	"disambig.insert_ms": true, "disambig.overlaps_per_update": true,
	"clarify.submit_ms": true, "clarify.unattributed_ms": true,
	"server.polls_per_update": true,
}

// layerMetrics derives the per-layer metrics of the traced rounds.
func layerMetrics(r *recorder) []metric {
	ratio := func(num, den string) float64 {
		if r.sums[den] == 0 {
			return 0
		}
		return r.sums[num] / r.sums[den]
	}
	plain, traced := r.sets[modePlain], r.sets[modeTraced]
	var out []metric
	for _, d := range layerDefs {
		m := metric{name: d.name, unit: d.unit}
		switch {
		case perUpdate[d.name]:
			if r.traced > 0 {
				m.value = r.sums[d.name] / float64(r.traced)
			}
		case d.name == "symbolic.cache_hit_ratio":
			m.value = ratio("symbolic.cache_hits", "symbolic.cache_acquires_per_update")
		case d.name == "bdd.unique_hit_ratio":
			m.value = ratio("bdd.unique_hits", "bdd.unique_lookups")
		case d.name == "server.poll_useful_ratio":
			m.value = ratio("server.useful_polls", "server.polls_per_update")
		case d.name == "answer_turn_ms_p50":
			m.value = median(traced.turns)
		case d.name == "runtime.gc_cpu_fraction":
			if plain.use.availCPU > 0 {
				m.value = plain.use.gcCPU / plain.use.availCPU
			}
		case d.name == "trace_overhead_pct":
			if len(plain.update) > 0 && len(traced.update) > 0 {
				m.value = (median(traced.update)/median(plain.update) - 1) * 100
			}
		case r.lists[d.name] != nil:
			m.value = median(r.lists[d.name])
		default:
			m.value = r.sums[d.name]
		}
		out = append(out, m)
	}
	return out
}

// probeUpdate measures the layers of one traced in-process update. base is
// the session configuration the update started from; llmT is the timing
// wrapper the real Submit called through; cacheDelta is the real SpaceCache's
// hit/miss movement during Submit. probeCache mirrors the real cache's
// lifetime, so the verification probe hits or misses as the real path did.
func probeUpdate(r *recorder, id int, probeCache *symbolic.SpaceCache, u *update, base *ios.Config, res *clarify.UpdateResult, s sample, llmT *timedLLM, cacheDelta symbolic.SpaceCacheStats) error {
	llmMs := ms(llmT.dur)
	r.add("llm.calls_per_update", float64(llmT.calls))
	r.add("llm.complete_ms_per_update", llmMs)
	r.add("clarify.submit_ms", s.updateMs)
	r.add("symbolic.cache_hits", float64(cacheDelta.Hits))
	r.add("symbolic.cache_acquires_per_update", float64(cacheDelta.Hits+cacheDelta.Misses))

	baseText := base.Print()
	var snippet *ios.Config
	var err error
	parseMs := r.timed(id, "ios.parse_ms", func() { snippet, err = ios.Parse(res.SnippetText) })
	if err != nil {
		return fmt.Errorf("probe ios.Parse(snippet): %w", err)
	}
	r.timed(id, "ios.parse_ms", func() { _, err = ios.Parse(baseText) })
	if err != nil {
		return fmt.Errorf("probe ios.Parse(base): %w", err)
	}
	r.timed(id, "ios.print_ms", func() { _ = res.Config.Print() })

	var verifyMs, insertMs, spaceMs float64
	var pool *bdd.Pool
	if u.acl {
		name := onlyName(snippet, true)
		as, err := spec.ParseACLSpec([]byte(res.SpecJSON))
		if err != nil {
			return fmt.Errorf("probe spec: %w", err)
		}
		verifyMs = r.timed(id, "spec.verify_ms", func() { _, err = spec.VerifyACLSnippet(snippet, name, as) })
		if err != nil {
			return fmt.Errorf("probe spec.VerifyACLSnippet: %w", err)
		}
		acl := base.ACLs[u.name]
		var space *symbolic.ACLSpace
		r.timed(id, "symbolic.acl_space_ms", func() {
			space = symbolic.NewACLSpace()
			space.FirstMatch(acl)
		})
		space.PermitSet(acl)
		space.ACEPred(snippet.ACLs[name].Entries[0])
		pool = space.Pool
		o := &operatorClock{user: disambig.NewSimUserACL(u.target, u.name)}
		insertMs = o.timed(r, id, func() { _, err = disambig.InsertACLEntry(base, u.name, snippet, name, o) })
		if err != nil {
			return fmt.Errorf("probe disambig.InsertACLEntry: %w", err)
		}
		r.add("disambig.overlaps_per_update", float64(len(res.ACLInsert.Overlaps)))
	} else {
		name := onlyName(snippet, false)
		rs, err := spec.ParseRouteMapSpec([]byte(res.SpecJSON))
		if err != nil {
			return fmt.Errorf("probe spec: %w", err)
		}
		before := probeCache.Stats().Misses
		verifyMs = r.timed(id, "spec.verify_ms", func() { err = verifyRoute(probeCache, snippet, name, rs) })
		if err != nil {
			return err
		}
		// The real path builds the verification space and the disambiguation
		// space; charge a space build for each real miss the verification
		// probe did not reproduce.
		extraMisses := cacheDelta.Misses - (probeCache.Stats().Misses - before)
		if err := probeAtoms(r, id, base, snippet); err != nil {
			return err
		}
		var space *symbolic.RouteSpace
		spaceMs = r.timed(id, "symbolic.space_build_ms", func() { space, err = symbolic.NewRouteSpace(base, snippet) })
		if err != nil {
			return fmt.Errorf("probe symbolic.NewRouteSpace: %w", err)
		}
		if _, err := space.FirstMatch(base, base.RouteMaps[u.name]); err != nil {
			return fmt.Errorf("probe FirstMatch: %w", err)
		}
		if _, err := space.StanzaPred(snippet, snippet.RouteMaps[name].Stanzas[0]); err != nil {
			return fmt.Errorf("probe StanzaPred: %w", err)
		}
		pool = space.Pool
		spaceMs *= float64(max(extraMisses, 0))
		// A private cache, warmed by one untimed call, so the timed call
		// measures the search and insertion without the space build.
		cache := symbolic.NewSpaceCache()
		o := &operatorClock{user: disambig.NewSimUserRouteMap(u.target, u.name)}
		insert := func() {
			_, err = disambig.InsertRouteMapStanzaStrategyCached(disambig.StrategyBinary, cache, base, u.name, snippet, name, o)
		}
		insert()
		insertMs = o.timed(r, id, insert)
		if err != nil {
			return fmt.Errorf("probe disambig.InsertRouteMapStanzaStrategyCached: %w", err)
		}
		r.add("disambig.overlaps_per_update", float64(len(res.RouteInsert.Overlaps)))
	}
	c := pool.Counters()
	r.add("bdd.nodes_per_update", float64(pool.Size()))
	r.add("bdd.ite_calls_per_update", float64(c.ITECalls))
	r.add("bdd.unique_hits", float64(c.UniqueHits))
	r.add("bdd.unique_lookups", float64(c.UniqueHits+c.UniqueMisses))
	r.add("clarify.unattributed_ms", s.updateMs-(llmMs+parseMs+verifyMs+insertMs+spaceMs))
	return nil
}

// verifyRoute is the route-map verification probe.
func verifyRoute(probeCache *symbolic.SpaceCache, snippet *ios.Config, name string, rs *spec.RouteMapSpec) error {
	if _, err := spec.VerifyRouteMapSnippetCached(probeCache, snippet, name, rs); err != nil {
		return fmt.Errorf("probe spec.VerifyRouteMapSnippetCached: %w", err)
	}
	return nil
}

// warmProbe runs the verification probe of a warm-up update, untimed, so
// probeCache holds the spaces the real cache was warmed with.
func warmProbe(probeCache *symbolic.SpaceCache, res *clarify.UpdateResult) error {
	snippet, err := ios.Parse(res.SnippetText)
	if err != nil {
		return fmt.Errorf("probe ios.Parse(snippet): %w", err)
	}
	rs, err := spec.ParseRouteMapSpec([]byte(res.SpecJSON))
	if err != nil {
		return fmt.Errorf("probe spec: %w", err)
	}
	return verifyRoute(probeCache, snippet, onlyName(snippet, false), rs)
}

// operatorClock is the insertion probe's simulated operator. Like the real
// update's, its answering time is left out of the insertion's time.
type operatorClock struct {
	user     *disambig.SimUser
	answered time.Duration
}

func (o *operatorClock) ChooseRoute(q disambig.RouteQuestion) (bool, error) {
	start := time.Now()
	defer func() { o.answered += time.Since(start) }()
	return o.user.ChooseRoute(q)
}

func (o *operatorClock) ChooseACL(q disambig.ACLQuestion) (bool, error) {
	start := time.Now()
	defer func() { o.answered += time.Since(start) }()
	return o.user.ChooseACL(q)
}

// timed runs insert and records it as disambig.insert_ms, without the time
// the operator spent answering.
func (o *operatorClock) timed(r *recorder, id int, insert func()) float64 {
	o.answered = 0
	start := time.Now()
	insert()
	d := time.Since(start) - o.answered
	r.add("disambig.insert_ms", ms(d))
	r.spans.add(id, "disambig.insert_ms", start, d)
	return ms(d)
}

// probeAtoms times the regex compilation and the atomic-predicate partition
// of the space NewRouteSpace(base, snippet) would build, separating the two
// through atoms.Build's compile callback.
func probeAtoms(r *recorder, id int, base, snippet *ios.Config) error {
	var compile time.Duration
	states := 0
	timedCompile := func(c func(string) (*rx.DFA, error)) func(string) (*rx.DFA, error) {
		return func(p string) (*rx.DFA, error) {
			t := time.Now()
			d, err := c(p)
			compile += time.Since(t)
			if d != nil {
				states += d.NumStates()
			}
			return d, err
		}
	}
	path, comm := spacePatterns(base, snippet)
	start := time.Now()
	pu, err := atoms.Build(path, timedCompile(ciscorx.CompilePath), ciscorx.ValidPath())
	if err != nil {
		return fmt.Errorf("probe atoms.Build(path): %w", err)
	}
	cu, err := atoms.Build(comm, timedCompile(ciscorx.CompileCommunity), ciscorx.ValidCommunity())
	if err != nil {
		return fmt.Errorf("probe atoms.Build(community): %w", err)
	}
	total := time.Since(start)
	r.add("rx.compile_ms_per_update", ms(compile))
	r.add("rx.dfa_states_per_update", float64(states))
	r.add("atoms.partition_ms_per_update", ms(total-compile))
	r.add("atoms.count", float64(pu.NumAtoms()+cu.NumAtoms()))
	r.spans.add(id, "rx.compile_ms_per_update", start, compile)
	r.spans.add(id, "atoms.partition_ms_per_update", start, total-compile)
	return nil
}

// spacePatterns lists the as-path and community patterns a RouteSpace over
// cfgs is built from: every as-path regex, expanded community regex,
// standard community literal and set-community literal, lists in name order.
func spacePatterns(cfgs ...*ios.Config) (path, comm []string) {
	for _, cfg := range cfgs {
		for _, n := range sortedNames(cfg.ASPathLists) {
			for _, e := range cfg.ASPathLists[n].Entries {
				path = append(path, e.Regex)
			}
		}
		for _, n := range sortedNames(cfg.CommunityLists) {
			l := cfg.CommunityLists[n]
			for _, e := range l.Entries {
				if l.Expanded {
					comm = append(comm, e.Values[0])
					continue
				}
				for _, lit := range e.Values {
					comm = append(comm, "^"+lit+"$")
				}
			}
		}
		for _, n := range sortedNames(cfg.RouteMaps) {
			for _, st := range cfg.RouteMaps[n].Stanzas {
				for _, set := range st.Sets {
					if sc, ok := set.(ios.SetCommunity); ok {
						for _, lit := range sc.Communities {
							comm = append(comm, "^"+lit+"$")
						}
					}
				}
			}
		}
	}
	return path, comm
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
