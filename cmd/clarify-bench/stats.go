package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// mode distinguishes the unmeasured warm-up from the plain (end-to-end) and
// traced (per-layer) measured rounds.
type mode int

const (
	modeWarmup mode = iota
	modePlain
	modeTraced
)

// minSamples is the fewest samples a latency percentile is reported from;
// with fewer the metric is absent.
const minSamples = 100

// sample is one completed update as the operator saw it.
type sample struct {
	updateMs  float64
	firstMs   float64 // submit → first question; only when questions > 0
	turnsMs   []float64
	questions int
}

// usage is process resource use over an interval.
type usage struct {
	wall, cpu       time.Duration
	alloc           uint64
	gcCPU, availCPU float64 // seconds, from runtime/metrics
}

// mark is a point-in-time reading that usage intervals are measured from.
type mark struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gc    float64
	avail float64
}

func readMark() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return mark{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gc:    s[0].Value.Float64(),
		avail: s[1].Value.Float64(),
	}
}

func (u *usage) add(from, to mark) {
	u.wall += to.at.Sub(from.at)
	u.cpu += to.cpu - from.cpu
	u.alloc += to.alloc - from.alloc
	u.gcCPU += to.gc - from.gc
	u.availCPU += to.avail - from.avail
}

// sampleSet accumulates the updates of one mode.
type sampleSet struct {
	update, first, turns []float64
	completed, questions int
	rounds               int
	use                  usage
}

// recorder collects everything one benchmark run measures. Its methods are
// safe for concurrent use by the HTTP workload's operators.
type recorder struct {
	mu         sync.Mutex
	sets       [3]sampleSet // by mode
	start      mark
	ids        int
	attempted  int
	failed     int
	checks     int
	mismatched int
	problems   []string // first few failure and mismatch descriptions

	// Per-layer accumulators of the traced rounds: sums by name, and sample
	// lists for the layers reported as medians.
	traced int
	sums   map[string]float64
	lists  map[string][]float64
	spans  *spanLog
}

func newRecorder(spans *spanLog) *recorder {
	return &recorder{sums: map[string]float64{}, lists: map[string][]float64{}, spans: spans}
}

// maxProblems bounds the failure descriptions a run keeps.
const maxProblems = 5

func (r *recorder) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// begin and end bracket one round; measured rounds add to the mode's usage.
func (r *recorder) begin(m mode) {
	if m != modeWarmup {
		r.start = readMark()
	}
}

func (r *recorder) end(m mode) {
	if m != modeWarmup {
		r.sets[m].use.add(r.start, readMark())
		r.sets[m].rounds++
	}
}

// nextID numbers an update within the run, for its spans.
func (r *recorder) nextID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// done records a completed update.
func (r *recorder) done(m mode, s sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if m == modeTraced {
		r.traced++
	}
	if m == modeWarmup {
		return
	}
	set := &r.sets[m]
	set.completed++
	set.questions += s.questions
	set.update = append(set.update, s.updateMs)
	if s.questions > 0 {
		set.first = append(set.first, s.firstMs)
		set.turns = append(set.turns, s.turnsMs...)
	}
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.problem("update failed: %v", err)
}

// broken records a failure of the benchmark's own instrumentation on an
// update that otherwise completed.
func (r *recorder) broken(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.problem("%v", err)
}

func (r *recorder) checked(ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks++
	if err != nil || !ok {
		r.mismatched++
		r.problem("final configuration differs from the hidden target: %v", err)
	}
}

// add accumulates a per-layer sum for the traced rounds.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

// list appends a per-layer sample reported as a median.
func (r *recorder) list(name string, v float64) {
	r.mu.Lock()
	r.lists[name] = append(r.lists[name], v)
	r.mu.Unlock()
}

// timed runs f, adding its wall time in milliseconds to the named layer sum
// and recording it as a span of update.
func (r *recorder) timed(update int, name string, f func()) float64 {
	start := time.Now()
	f()
	d := time.Since(start)
	r.add(name, ms(d))
	r.spans.add(update, name, start, d)
	return ms(d)
}

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), xs...), 0.5)
}

// metric is one reported value; absent when too few samples exist.
type metric struct {
	name, unit string
	value      float64
	n          int // samples behind a percentile; 0 for other metrics
	absent     bool
}

// metricDef names an end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // share of the parent's median it may worsen by
}

// e2eDefs are the end-to-end metrics, in BENCHMARK.json order. The count and
// memory bounds are at least three times the widest spread measured across
// seeds (README.md). The timing bounds are the widest BENCHMARK.json allows:
// on the reference host, run-to-run noise alone spreads timings by 10–20%.
// The plain run also prints three metrics it does not compare between commits:
// error_rate and mismatch_rate are zero on every correct run, so they gate the
// run (the result's "correct" and "failed") instead; answer_turn_ms_p50 is a
// few microseconds in process, where it is noise, so it is a per-layer metric.
var e2eDefs = []metricDef{
	{"update_ms_p50", "ms", false, 0.25},
	{"update_ms_p90", "ms", false, 0.25},
	{"first_question_ms_p50", "ms", false, 0.25},
	{"updates_per_s", "1/s", true, 0.25},
	{"questions_per_update", "count", false, 0.03},
	{"cpu_ms_per_update", "ms", false, 0.25},
	{"alloc_kb_per_update", "KiB", false, 0.03},
	{"heap_live_mb", "MiB", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// e2eMetrics derives the end-to-end metrics from the plain rounds.
func e2eMetrics(r *recorder, heapMB, setupS float64) []metric {
	set := r.sets[modePlain]
	pct := func(name string, xs []float64, q float64) metric {
		if len(xs) < minSamples {
			return metric{name: name, unit: "ms", n: len(xs), absent: true}
		}
		return metric{name: name, unit: "ms", value: percentile(xs, q), n: len(xs)}
	}
	per := func(v float64) float64 { return v / float64(max(set.completed, 1)) }
	out := []metric{
		pct("update_ms_p50", set.update, 0.5),
		pct("update_ms_p90", set.update, 0.9),
		pct("first_question_ms_p50", set.first, 0.5),
		pct("answer_turn_ms_p50", set.turns, 0.5),
		{name: "updates_per_s", unit: "1/s", value: float64(set.completed) / set.use.wall.Seconds()},
		{name: "questions_per_update", unit: "count", value: per(float64(set.questions))},
		{name: "cpu_ms_per_update", unit: "ms", value: per(ms(set.use.cpu))},
		{name: "alloc_kb_per_update", unit: "KiB", value: per(float64(set.use.alloc) / 1024)},
		{name: "heap_live_mb", unit: "MiB", value: heapMB},
		{name: "setup_s", unit: "s", value: setupS},
		{name: "error_rate", unit: "ratio", value: float64(r.failed) / float64(max(r.attempted, 1))},
		{name: "mismatch_rate", unit: "ratio", value: float64(r.mismatched) / float64(max(r.checks, 1))},
	}
	return out
}
