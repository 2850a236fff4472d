package main

import (
	"context"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/symbolic"
)

// inproc runs the in-process workloads: one closed-loop client calling
// clarify.Session.Submit, with the operator simulated by disambig.SimUser
// over the hidden target.
type inproc struct {
	rec  *recorder
	src  stream
	size int // updates per round
	// freshCache replaces the shared SpaceCache every round. SpaceCache never
	// evicts by key, so a stream whose fingerprints never repeat would grow
	// it without bound.
	freshCache bool
	traced     bool // the run has traced rounds, so probeCache must be kept

	cache      *symbolic.SpaceCache // shared across sessions, as clarifyd does
	probeCache *symbolic.SpaceCache // the probes' mirror of cache's lifetime
	sess       *clarify.Session
	checks     []*pending
	verdicts   verdicts
}

// pending is one finished session awaiting its equivalence check.
type pending struct {
	u     *update
	final *ios.Config
	text  string // the final configuration as the HTTP API returned it
}

func newInproc(rec *recorder, src stream, size int, freshCache, traced bool) *inproc {
	return &inproc{rec: rec, src: src, size: size, freshCache: freshCache, traced: traced,
		cache: symbolic.NewSpaceCache(), probeCache: symbolic.NewSpaceCache(), verdicts: verdicts{}}
}

func (r *inproc) close()  {}
func (r *inproc) finish() {}

// warm runs src's warm-up updates, or else one round of src, unmeasured.
func (r *inproc) warm(src stream) error {
	if w, ok := src.(interface{ warmup() []*update }); ok {
		r.run(w.warmup(), modeWarmup)
	} else {
		r.batch(src, modeWarmup)
	}
	return nil
}

func (r *inproc) round(m mode) error {
	r.batch(r.src, m)
	return nil
}

// batch runs the next round of updates from src.
func (r *inproc) batch(src stream, m mode) {
	if r.freshCache {
		r.cache, r.probeCache = symbolic.NewSpaceCache(), symbolic.NewSpaceCache()
	}
	r.run(take(src, r.size), m)
}

func (r *inproc) run(batch []*update, m mode) {
	r.rec.begin(m)
	for _, u := range batch {
		r.one(u, m)
	}
	r.rec.end(m)
}

// one runs a single update and queues the session's final configuration for
// checking when its life ends.
func (r *inproc) one(u *update, m mode) {
	if u.base != nil {
		r.sess = &clarify.Session{Config: u.base, SpaceCache: r.cache}
	}
	user := &disambig.SimUser{Target: u.target, MapName: u.name, ACLName: u.name}
	o := &timedOracle{}
	var tl *timedLLM
	var client llm.Client = llm.NewSimLLM()
	if m == modeTraced {
		tl = &timedLLM{inner: client}
		client = tl
	}
	r.sess.Client = client
	r.sess.RouteOracle = disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) {
		return o.ask(func() (bool, error) { return user.ChooseRoute(q) })
	})
	r.sess.ACLOracle = disambig.FuncACLOracle(func(q disambig.ACLQuestion) (bool, error) {
		return o.ask(func() (bool, error) { return user.ChooseACL(q) })
	})
	id := r.rec.nextID()
	base := r.sess.CurrentConfig()
	var before symbolic.SpaceCacheStats
	if m == modeTraced {
		before = r.cache.Stats()
	}
	o.start = time.Now()
	res, err := r.sess.Submit(context.Background(), u.intent, u.name)
	end := time.Now()
	if err != nil {
		r.rec.fail(err)
		return
	}
	s := o.sample(end)
	r.rec.done(m, s)
	switch {
	case m == modeTraced:
		r.rec.spans.add(id, "clarify.submit_ms", o.start, end.Sub(o.start))
		after := r.cache.Stats()
		delta := symbolic.SpaceCacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
		if err := probeUpdate(r.rec, id, r.probeCache, u, base, res, s, tl, delta); err != nil {
			r.rec.broken(err)
		}
	case m == modeWarmup && r.traced && !u.acl:
		// The real cache holds the warm-up's spaces; so must the probes'.
		if err := warmProbe(r.probeCache, res); err != nil {
			r.rec.broken(err)
		}
	}
	if u.last {
		r.checks = append(r.checks, &pending{u: u, final: res.Config})
	}
}

// check verifies the sessions the last round finished, outside the measured
// time.
func (r *inproc) check() {
	for _, p := range r.checks {
		r.rec.checked(verify(r.verdicts, p.u, p.final))
	}
	r.checks = r.checks[:0]
}

// timedOracle wraps the simulated operator: it timestamps each question and
// answer, and keeps the operator's own evaluation time out of update time
// (the simulated operator answers instantly).
type timedOracle struct {
	start, last time.Time
	first       time.Duration
	turns       []float64
	inOracle    time.Duration
	questions   int
}

func (o *timedOracle) ask(answer func() (bool, error)) (bool, error) {
	now := time.Now()
	if o.questions == 0 {
		o.first = now.Sub(o.start)
	} else {
		o.turns = append(o.turns, ms(now.Sub(o.last)))
	}
	o.questions++
	ok, err := answer()
	o.last = time.Now()
	o.inOracle += o.last.Sub(now)
	return ok, err
}

func (o *timedOracle) sample(end time.Time) sample {
	s := sample{updateMs: ms(end.Sub(o.start) - o.inOracle), questions: o.questions, turnsMs: o.turns}
	if o.questions > 0 {
		s.firstMs = ms(o.first)
		s.turnsMs = append(s.turnsMs, ms(end.Sub(o.last)))
	}
	return s
}

// timedLLM is the traced run's timing wrapper around the session's LLM.
type timedLLM struct {
	inner llm.Client
	calls int
	dur   time.Duration
}

func (t *timedLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := t.inner.Complete(ctx, req)
	t.dur += time.Since(start)
	t.calls++
	return resp, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
