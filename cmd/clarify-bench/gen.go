package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"net/netip"
	"sort"
	"strings"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/workload"
)

// update is one generated operator request plus the hidden target the
// operator means by it. The target is built by the generator from the
// intent's parameters, never from pipeline output; the benchmark checks the
// pipeline's final configuration against it.
type update struct {
	acl    bool
	name   string // target route-map or ACL
	intent string
	// base, when non-nil, starts a new session from this configuration; nil
	// continues the current (aged) session.
	base     *ios.Config
	baseText string // base.Print(), for the HTTP workload's session create
	// target is the session's hidden target configuration after this update.
	target *ios.Config
	pos    int // position of the new rule in target
	// last marks the end of a session's life: its final configuration is
	// checked against target.
	last bool
	// key identifies (base, intent, position) for memoizing the equivalence
	// check of workloads that repeat inputs; empty when inputs never repeat.
	key string
}

// stream yields a deterministic update sequence for one workload and seed.
type stream interface{ next() *update }

// take returns the next n updates of src.
func take(src stream, n int) []*update {
	out := make([]*update, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}

// corpusSeed fixes the generated networks (the cloud and campus corpora) the
// operators manage. The run's seed drives only what the operators do: which
// configuration each session edits, the intents, and the target positions.
// A seed that also regenerated the corpus would change the workload's cost
// from seed to seed (the community-heavy maps' sizes are random).
const corpusSeed = 1

// deck deals the integers [0, n) in a seeded order, reshuffling after every
// n draws. The streams draw the choices that set an update's cost and its
// question count (base configuration, target position, aimed entry, session
// kind) from decks rather than independently, so every run covers each
// choice in nearly equal shares whatever its seed, and questions_per_update
// and the timings vary little from seed to seed.
type deck struct {
	rng  *rand.Rand
	perm []int
	next int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, perm: make([]int, n), next: n} }

func (d *deck) draw() int {
	if d.next == len(d.perm) {
		copy(d.perm, d.rng.Perm(len(d.perm)))
		d.next = 0
	}
	d.next++
	return d.perm[d.next-1]
}

// decks keeps one deck per key, such as a target position deck per base
// configuration.
type decks struct {
	rng *rand.Rand
	m   map[int]*deck
}

func newDecks(rng *rand.Rand) *decks { return &decks{rng: rng, m: map[int]*deck{}} }

// draw deals from key's deck of n; a key keeps the n of its first draw.
func (ds *decks) draw(key, n int) int {
	d := ds.m[key]
	if d == nil {
		d = newDeck(ds.rng, n)
		ds.m[key] = d
	}
	return d.draw()
}

// spaced returns n of xs at evenly spaced indices, keeping the corpus's mix
// of archetypes, which it generates in blocks.
func spaced[T any](xs []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// AS-path conditions the SimLLM intent grammar accepts.
const (
	asNone = iota
	asOrigin
	asTransit
	asNeighbor
)

// rmIntent is the parameter set of one route-map intent.
type rmIntent struct {
	permit bool
	prefix netip.Prefix // a /16
	le     int
	comm   string // "hi:lo"
	asKind int
	asn    int
	metric int
}

func (in rmIntent) text() string {
	var b strings.Builder
	b.WriteString("Write a route-map stanza that ")
	if in.permit {
		b.WriteString("permits")
	} else {
		b.WriteString("denies")
	}
	fmt.Fprintf(&b, " routes containing the prefix %s with mask length less than or equal to %d and tagged with the community %s",
		in.prefix, in.le, in.comm)
	switch in.asKind {
	case asOrigin:
		fmt.Fprintf(&b, " and originating from AS %d", in.asn)
	case asTransit:
		fmt.Fprintf(&b, " and passing through AS %d", in.asn)
	case asNeighbor:
		fmt.Fprintf(&b, " and received from neighbor AS %d", in.asn)
	}
	b.WriteString(".")
	if in.permit {
		fmt.Fprintf(&b, " Their MED value should be set to %d.", in.metric)
	}
	return b.String()
}

func (in rmIntent) asRegex() string {
	switch in.asKind {
	case asOrigin:
		return fmt.Sprintf("_%d$", in.asn)
	case asTransit:
		return fmt.Sprintf("_%d_", in.asn)
	case asNeighbor:
		return fmt.Sprintf("^%d_", in.asn)
	}
	return ""
}

// stanza builds the operator's intended stanza into cfg, defining its lists
// under tag-derived names. The community is a standard (literal) list where
// the pipeline renders an expanded regex, so the oracle does not share the
// synthesizer's encoding.
func (in rmIntent) stanza(cfg *ios.Config, tag string) *ios.Stanza {
	st := &ios.Stanza{Permit: in.permit}
	pl, cl := tag+"_P", tag+"_C"
	cfg.AddPrefixList(pl, ios.PrefixListEntry{Seq: 10, Permit: true, Prefix: in.prefix, Le: in.le})
	cfg.AddCommunityList(cl, false, ios.CommunityListEntry{Permit: true, Values: []string{in.comm}})
	st.Matches = []ios.Match{ios.MatchPrefixList{List: pl}, ios.MatchCommunity{List: cl}}
	if re := in.asRegex(); re != "" {
		al := tag + "_A"
		cfg.AddASPathList(al, ios.ASPathEntry{Permit: true, Regex: re})
		st.Matches = append(st.Matches, ios.MatchASPath{List: al})
	}
	if in.permit {
		st.Sets = []ios.SetClause{ios.SetMetric{Value: uint32(in.metric)}}
	}
	return st
}

// randRMIntent draws a route-map intent with the given action and as-path
// condition. slot selects a disjoint block of /16s (slot < 10), so intents
// with different slots never overlap each other; they overlap only the base
// map's community and as-path stanzas.
func randRMIntent(rng *rand.Rand, slot int, comm string, permit bool, asKind int) rmIntent {
	in := rmIntent{
		permit: permit,
		prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(100 + rng.Intn(120)), byte(25*slot + rng.Intn(25)), 0, 0}), 16),
		le:     17 + rng.Intn(12),
		comm:   comm,
		asKind: asKind,
		metric: 1 + rng.Intn(200),
	}
	if asKind != asNone {
		in.asn = 64512 + rng.Intn(1000)
	}
	return in
}

func randCommunity(rng *rand.Rand) string {
	return fmt.Sprintf("%d:%d", 1000+rng.Intn(60000), rng.Intn(65536))
}

// routeTarget returns base with in's stanza inserted into the named route map
// at the position pos picks among the map's len+1.
func routeTarget(base *ios.Config, name string, in rmIntent, tag string, pos func(n int) int) (*ios.Config, int) {
	target := base.Clone()
	rm := target.RouteMaps[name]
	p := pos(len(rm.Stanzas) + 1)
	rm.InsertStanza(p, in.stanza(target, tag))
	return target, p
}

// onlyName returns the single route-map (or ACL) name of a corpus config.
func onlyName(cfg *ios.Config, acl bool) string {
	var names []string
	if acl {
		for n := range cfg.ACLs {
			names = append(names, n)
		}
	} else {
		for n := range cfg.RouteMaps {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names[0]
}

// freshStream is inproc-fresh: sessions over the cloud route-map corpus, aged
// to life updates and then reset to a new base. Every intent carries a
// community never used before in the stream, so no symbolic universe repeats.
type freshStream struct {
	rng      *rand.Rand
	bases    []*ios.Config
	plans    [][]planStep // by base
	baseDeck *deck
	order    []int // the session's plan steps, by slot
	life     int
	slot     int
	bi       int
	name     string
	target   *ios.Config
	seen     map[string]bool
	tags     int
}

// planStep is the shape of one update of an aged session: its action, its
// as-path condition, and which of the session's life equal slices of the
// route map its rule belongs in. Together with the base map these decide how
// many stanzas the rule overlaps and how many questions place it.
type planStep struct {
	slice  int
	permit bool
	asKind int
}

// freshBases is the number of overlapping maps inproc-fresh edits. A full-size
// run (21 rounds of 5 sessions) starts three sessions on each.
const freshBases = 35

func newFreshStream(seed int64, life int) *freshStream {
	// Only the maps with community or as-path stanzas (the corpus's overlapping
	// maps) can make a prefix-and-community intent ambiguous.
	var overlapping []*ios.Config
	for _, c := range workload.Cloud(corpusSeed, 0, workload.CloudRouteMapCount).RouteMapConfigs {
		if len(c.CommunityLists)+len(c.ASPathLists) > 0 {
			overlapping = append(overlapping, c)
		}
	}
	// Every session on a base follows that base's plan, which, like the
	// corpus, does not depend on the run's seed: the seed orders the steps and
	// picks the exact positions and every intent value. Each plan places one
	// rule in each slice; three in four permit, and half carry an as-path
	// condition.
	planRng := rand.New(rand.NewSource(corpusSeed))
	permits, asKinds := newDeck(planRng, 4), newDeck(planRng, len(agedASKinds))
	plans := make([][]planStep, freshBases)
	for b := range plans {
		for i := 0; i < life; i++ {
			plans[b] = append(plans[b], planStep{slice: i, permit: permits.draw() != 0, asKind: agedASKinds[asKinds.draw()]})
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x66726573))
	return &freshStream{rng: rng, bases: spaced(overlapping, freshBases), plans: plans,
		baseDeck: newDeck(rng, freshBases), life: life, seen: map[string]bool{}}
}

// agedASKinds are the as-path conditions of aged sessions, half of them none.
// Origin regexes exclude each other (a path has one origin), as do neighbor
// regexes, so the atomic partition grows linearly with a session's age.
// Transit regexes ("_N_") overlap one another: a session aged through k of
// them has up to 2^k path atoms, and each update's space build doubles in
// cost.
var agedASKinds = []int{asNone, asNone, asOrigin, asNeighbor}

func (s *freshStream) next() *update {
	u := &update{}
	if s.slot == 0 {
		s.bi = s.baseDeck.draw()
		u.base = s.bases[s.bi]
		s.name = onlyName(u.base, false)
		s.target = u.base
		s.order = s.rng.Perm(s.life)
	}
	comm := randCommunity(s.rng)
	for s.seen[comm] {
		comm = randCommunity(s.rng)
	}
	s.seen[comm] = true
	step := s.plans[s.bi][s.order[s.slot]]
	in := randRMIntent(s.rng, s.slot, comm, step.permit, step.asKind)
	s.tags++
	s.target, u.pos = routeTarget(s.target, s.name, in, fmt.Sprintf("T%d", s.tags), func(n int) int {
		return (step.slice*n + s.rng.Intn(n)) / s.life
	})
	u.name, u.intent, u.target = s.name, in.text(), s.target
	s.slot++
	if s.slot == s.life {
		s.slot = 0
		u.last = true
	}
	return u
}

// poolStream is inproc-repeat (and the route-map half of http-dialogue): a
// fixed set of overlap-heavy base maps × a fixed intent pool, one fresh
// session per update. After warm-up every symbolic universe is cached.
type poolStream struct {
	bases     []*ios.Config
	texts     []string
	pool      []rmIntent
	pairs     *deck // over (base, intent) pairs
	positions *decks
}

// poolBases and poolIntents size the repeat workload's input space; one
// round of inproc-repeat is one pass over its pairs.
const (
	poolBases   = 8
	poolIntents = 8
	poolPairs   = poolBases * poolIntents
)

func newPoolStream(seed int64) *poolStream {
	// The full-size corpus starts with its three community-heavy maps, then
	// the moderate (as-path + community) maps. Two heavy maps in eight keep
	// the latency median among moderate-map updates and the p90 among
	// heavy-map ones, so neither sits on the boundary between the two.
	c := workload.Cloud(corpusSeed, 0, workload.CloudRouteMapCount).RouteMapConfigs
	bases := append(append([]*ios.Config(nil), c[:2]...), c[3:3+poolBases-2]...)
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c))
	s := &poolStream{bases: bases, pairs: newDeck(rng, poolPairs), positions: newDecks(rng)}
	for _, b := range s.bases {
		s.texts = append(s.texts, b.Print())
	}
	// The pool's make-up is fixed, so seeds change its contents but not its
	// cost: two intents per as-path condition, three of every four permitting.
	for i := 0; i < poolIntents; i++ {
		s.pool = append(s.pool, randRMIntent(rng, i, randCommunity(rng), i%4 != 3, []int{asNone, asOrigin, asTransit, asNeighbor}[i/2]))
	}
	return s
}

func (s *poolStream) next() *update {
	p := s.pairs.draw()
	return s.make(p/poolIntents, p%poolIntents)
}

func (s *poolStream) make(bi, ii int) *update {
	base, in := s.bases[bi], s.pool[ii]
	name := onlyName(base, false)
	target, pos := routeTarget(base, name, in, "T", func(n int) int { return s.positions.draw(bi*poolIntents+ii, n) })
	return &update{name: name, intent: in.text(), base: base, baseText: s.texts[bi],
		target: target, pos: pos, last: true, key: fmt.Sprintf("%d/%d/%d", bi, ii, pos)}
}

// warmup returns one update per (base, intent) pair, so every symbolic
// universe the stream can produce is cached before measurement.
func (s *poolStream) warmup() []*update {
	var out []*update
	for bi := range s.bases {
		for ii := range s.pool {
			out = append(out, s.make(bi, ii))
		}
	}
	return out
}

// aclIntent is the parameter set of one ACL intent.
type aclIntent struct {
	permit bool
	proto  uint8        // 6 or 17
	src    netip.Prefix // a /24
	dst    netip.Prefix // invalid = any; /32 = host
	port   uint16
}

func (in aclIntent) text() string {
	action := "denies"
	if in.permit {
		action = "permits"
	}
	proto := "tcp"
	if in.proto == 17 {
		proto = "udp"
	}
	dst := "any host"
	switch {
	case !in.dst.IsValid():
	case in.dst.Bits() == 32:
		dst = "host " + in.dst.Addr().String()
	default:
		dst = in.dst.String()
	}
	return fmt.Sprintf("Add an entry that %s %s traffic from %s to %s on port %d.", action, proto, in.src, dst, in.port)
}

func wildcard(p netip.Prefix) uint32 { return uint32(0xFFFFFFFF) >> uint(p.Bits()) }

func (in aclIntent) ace() *ios.ACE {
	e := &ios.ACE{
		Permit:   in.permit,
		Protocol: ios.ProtoSpec{Value: in.proto},
		Src:      ios.AddrSpec{Addr: in.src.Addr(), Wildcard: wildcard(in.src)},
		Dst:      ios.AddrSpec{Any: true},
		DstPort:  ios.PortSpec{Op: ios.PortEq, Lo: in.port},
	}
	if in.dst.IsValid() {
		e.Dst = ios.AddrSpec{Addr: in.dst.Addr(), Wildcard: wildcard(in.dst)}
	}
	return e
}

// aclStream is inproc-acl (and the ACL half of http-dialogue): one fresh
// session per update against the cloud and campus ACL corpora. aimed of every
// four intents take the opposite action on packets an existing entry matches,
// so that entry's placement must be asked about.
type aclStream struct {
	rng       *rand.Rand
	bases     []*ios.Config
	texts     []string
	baseDeck  *deck
	aims      *deck
	aimed     int
	entries   *decks // the entry an intent aims at, per base
	positions *decks
}

// campusACLs bounds the campus share of the ACL corpus; aclBases is the
// number of its ACLs the workload edits. A full-size inproc-acl run (66
// rounds of 100 updates) edits each 33 times.
const (
	campusACLs = 1000
	aclBases   = 200
)

func newACLStream(seed int64, aimed int) *aclStream {
	corpus := append(workload.Cloud(corpusSeed, workload.CloudACLCount, 0).ACLConfigs,
		workload.Campus(corpusSeed, campusACLs, 0).ACLConfigs...)
	rng := rand.New(rand.NewSource(seed ^ 0x61636c))
	return &aclStream{rng: rng, bases: spaced(corpus, aclBases), texts: make([]string, aclBases),
		baseDeck: newDeck(rng, aclBases), aims: newDeck(rng, 4), aimed: aimed,
		entries: newDecks(rng), positions: newDecks(rng)}
}

func (s *aclStream) next() *update {
	bi := s.baseDeck.draw()
	base := s.bases[bi]
	name := onlyName(base, true)
	entries := base.ACLs[name].Entries
	in := aclIntent{
		permit: s.rng.Intn(2) == 0,
		proto:  []uint8{6, 17}[s.rng.Intn(2)],
		src:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(s.rng.Intn(250)), byte(s.rng.Intn(250)), 0}), 24),
		port:   uint16(1024 + s.rng.Intn(40000)),
	}
	if s.aims.draw() < s.aimed {
		aimAt(s.rng, &in, entries[s.entries.draw(bi, len(entries))])
	}
	target := base.Clone()
	pos := s.positions.draw(bi, len(entries)+1)
	target.ACLs[name].InsertEntry(pos, in.ace())
	if s.texts[bi] == "" {
		s.texts[bi] = base.Print()
	}
	return &update{acl: true, name: name, intent: in.text(), base: base, baseText: s.texts[bi],
		target: target, pos: pos, last: true}
}

// aimAt rewrites in so that it overlaps e with the opposite action.
func aimAt(rng *rand.Rand, in *aclIntent, e *ios.ACE) {
	in.permit = !e.Permit
	if !e.Protocol.Any {
		in.proto = e.Protocol.Value
	}
	if !e.Src.Any {
		in.src = netip.PrefixFrom(e.Src.Addr, 24).Masked()
	}
	if !e.Dst.Any {
		in.dst = netip.PrefixFrom(e.Dst.Addr, 32-bits.Len32(e.Dst.Wildcard)).Masked()
	}
	switch e.DstPort.Op {
	case ios.PortEq:
		in.port = e.DstPort.Lo
	case ios.PortRange:
		in.port = e.DstPort.Lo + uint16(rng.Intn(int(e.DstPort.Hi-e.DstPort.Lo)+1))
	}
}

// mixStream is http-dialogue: route-map and ACL sessions at 3:1.
type mixStream struct {
	kinds *deck
	route *poolStream
	acl   *aclStream
}

func newMixStream(seed int64) *mixStream {
	return &mixStream{kinds: newDeck(rand.New(rand.NewSource(seed^0x6d6978)), 4), route: newPoolStream(seed), acl: newACLStream(seed, 4)}
}

// warmup is the route-map pool's warm-up set; ACL updates use no cache.
func (s *mixStream) warmup() []*update { return s.route.warmup() }

func (s *mixStream) next() *update {
	if s.kinds.draw() == 0 {
		return s.acl.next()
	}
	return s.route.next()
}
