// Command clarify-bench is the repository's benchmark. It drives the Clarify
// pipeline through four workloads generated from a seed, checks every final
// configuration against the operator's hidden target, and prints the
// end-to-end metrics (plain run) or the per-layer metrics (traced run), each
// by name with its unit. The last line of standard output is a JSON summary.
//
//	clarify-bench -workload inproc-fresh -seed 1 -seconds 15 -trace 0
//	clarify-bench -workload all -seed 1 -trace spans.jsonl
//	clarify-bench -workload all -seed 1 -sets 2 -runs 5
//	clarify-bench -workload inproc-repeat -seed 1 -cpuprofile prof/
//
// Each workload runs a fixed number of rounds, set by -seconds alone. It
// exits non-zero when any update fails, any final configuration differs from
// its target, or (with -sets) two sets disagree beyond a metric's bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// workloadDef is one benchmark workload: a seeded input stream and the
// runner that executes it, a fixed number of updates at a time.
type workloadDef struct {
	name, why string
	// size is the updates in a round, and rounds the rounds of a run of
	// refSeconds, sized to take about that long on the reference host (see
	// README.md). A run's work is fixed by -seconds alone, so two commits
	// measured with the same flags measure the same updates.
	size, rounds int
	stream       func(seed int64) stream
	runner       func(rec *recorder, src stream, size int, traced bool) (runner, error)
}

// runner executes one workload's rounds.
type runner interface {
	// warm runs the unmeasured warm-up that ends set-up, on its own copy of
	// the input stream, so the measured rounds start at the stream's
	// beginning however much the warm-up takes.
	warm(src stream) error
	// round runs one round of updates in mode m.
	round(m mode) error
	// check verifies the sessions finished since the last check against their
	// hidden targets; it runs outside the measured time.
	check()
	// finish folds layer measurements taken outside the recorder.
	finish()
	close()
}

// refSeconds is the run length the workloads' round counts are sized for.
const refSeconds = 15

// setups is the number of set-ups per run; setup_s is their median.
const setups = 3

// freshLife is the number of updates an inproc-fresh session ages through
// before it is reset to a new base configuration.
const freshLife = 10

var workloads = []workloadDef{
	{"inproc-fresh",
		"every update is a new config shape, so rx, atoms, bdd and the symbolic space build run uncached",
		// 21 rounds of 5 sessions start three sessions on each of freshBases.
		5 * freshLife, 21,
		func(seed int64) stream { return newFreshStream(seed, freshLife) },
		func(rec *recorder, src stream, size int, traced bool) (runner, error) {
			return newInproc(rec, src, size, true, traced), nil
		}},
	{"inproc-repeat",
		"repeated configs and intents, so every space is a cache hit and disambig, llm, ios and allocation dominate",
		poolPairs, 48,
		func(seed int64) stream { return newPoolStream(seed) },
		func(rec *recorder, src stream, size int, traced bool) (runner, error) {
			return newInproc(rec, src, size, false, traced), nil
		}},
	{"inproc-acl",
		"ACL updates: fixed-shape packet BDDs with no rx, atoms or SpaceCache",
		aclBases / 2, 66,
		func(seed int64) stream { return newACLStream(seed, 3) },
		func(rec *recorder, src stream, size int, traced bool) (runner, error) {
			return newInproc(rec, src, size, false, traced), nil
		}},
	{"http-dialogue",
		"the HTTP front door: two operators poll Q&A through clarify-lb and two clarifyd replicas",
		40, 80,
		func(seed int64) stream { return newMixStream(seed) },
		func(rec *recorder, src stream, size int, traced bool) (runner, error) {
			return newHTTP(rec, src, size)
		}},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	profile string // CPU profile directory, or ""
}

// rounds is the number of rounds w runs for cfg: its full-size count scaled
// to -seconds, and at least two, so a traced run has a traced round.
func (cfg config) rounds(w workloadDef) int {
	return max(2, int(math.Round(float64(w.rounds)*cfg.seconds/refSeconds)))
}

// result is one workload run.
type result struct {
	w      workloadDef
	rec    *recorder
	e2e    []metric
	layers []metric
	spans  *spanLog
}

func (res *result) correct() bool {
	return res.rec.failed == 0 && res.rec.mismatched == 0 && res.rec.checks > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clarify-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", refSeconds, "run length: scales each workload's fixed round count, sized for this many seconds on the reference host")
	trace := fs.String("trace", "0", `"0": plain run (end-to-end metrics); "1": traced run (per-layer metrics); any other value: traced run writing its spans to that JSONL file`)
	sets := fs.Int("sets", 0, "repeatability mode: alternate this many sets of runs of one seed and compare their medians")
	runs := fs.Int("runs", 5, "runs per set in repeatability mode")
	profile := fs.String("cpuprofile", "", "write one CPU profile per workload into this directory and print per-package CPU shares")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "clarify-bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "clarify-bench: -seconds must be positive\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != "0", profile: *profile}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stdout, "clarify-bench: seed=%d seconds=%g mode=%s\n", cfg.seed, cfg.seconds, map[bool]string{false: "plain", true: "traced"}[cfg.traced])
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if *sets > 0 {
		return repeatability(stdout, stderr, selected, cfg, *sets, *runs)
	}
	if cfg.profile != "" {
		if err := os.MkdirAll(cfg.profile, 0o755); err != nil {
			fmt.Fprintf(stderr, "clarify-bench: %v\n", err)
			return 1
		}
	}

	var results []*result
	for _, w := range selected {
		res, err := runWorkload(w, cfg, *trace != "0" && *trace != "1")
		if err != nil {
			fmt.Fprintf(stderr, "clarify-bench: %s: %v\n", w.name, err)
			return 1
		}
		report(stdout, res, cfg.traced)
		for _, p := range res.rec.problems {
			fmt.Fprintf(stderr, "clarify-bench: %s: %s\n", w.name, p)
		}
		if cfg.profile != "" {
			if err := packageShares(stdout, cfg.profile, w.name); err != nil {
				fmt.Fprintf(stderr, "clarify-bench: %s: profile: %v\n", w.name, err)
				return 1
			}
		}
		results = append(results, res)
	}
	if cfg.traced && *trace != "1" {
		var logs []*spanLog
		for _, res := range results {
			logs = append(logs, res.spans)
		}
		if err := writeSpans(*trace, logs); err != nil {
			fmt.Fprintf(stderr, "clarify-bench: %v\n", err)
			return 1
		}
	}
	ok := summary(stdout, results, cfg.traced)
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets the workload up (several times, reporting the median),
// then measures its fixed number of rounds. In a traced run plain and traced
// rounds alternate, so trace_overhead_pct compares rounds taken under the
// same conditions.
func runWorkload(w workloadDef, cfg config, keepSpans bool) (*result, error) {
	res := &result{w: w}
	if keepSpans {
		res.spans = newSpanLog(w.name)
	}
	rec := newRecorder(res.spans)
	res.rec = rec
	var setupS []float64
	var r runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.runner(rec, w.stream(cfg.seed), w.size, cfg.traced); err != nil {
			return nil, err
		}
		if err := r.warm(w.stream(cfg.seed)); err != nil {
			r.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		r.check()
	}
	defer r.close()

	if cfg.profile != "" {
		f, err := os.Create(filepath.Join(cfg.profile, w.name+".pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	runtime.GC()
	var heap []float64
	for i := 0; i < cfg.rounds(w); i++ {
		m := modePlain
		if cfg.traced && i%2 == 1 {
			m = modeTraced
		}
		if err := r.round(m); err != nil {
			return nil, err
		}
		// Work between rounds is labelled so the CPU profile can leave it out.
		pprof.Do(context.Background(), pprof.Labels("phase", betweenRounds), func(context.Context) {
			r.check()
			heap = append(heap, heapLiveMB())
		})
	}
	r.finish()
	res.e2e = e2eMetrics(rec, median(heap), median(setupS))
	res.layers = layerMetrics(rec)
	return res, nil
}

// heapLiveMB is the live heap after a collection, outside the measured time:
// the memory the workload retains, caches included. HeapInuse would add the
// free space of partly used spans, which varied by 10% between runs of one
// workload while the live heap varied by 0.3%.
func heapLiveMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// report prints one workload's metrics for a reader.
func report(w io.Writer, res *result, traced bool) {
	rec := res.rec
	plain := rec.sets[modePlain]
	fmt.Fprintf(w, "\n%s: %d updates in %.2f s measured (%d plain rounds, %d traced), %d attempted, %d failed, %d of %d sessions mismatched\n",
		res.w.name, plain.completed+rec.sets[modeTraced].completed, plain.use.wall.Seconds()+rec.sets[modeTraced].use.wall.Seconds(),
		plain.rounds, rec.sets[modeTraced].rounds, rec.attempted, rec.failed, rec.mismatched, rec.checks)
	fmt.Fprintf(w, "  why: %s\n", res.w.why)
	printMetrics(w, res.e2e)
	if traced {
		fmt.Fprintf(w, "  per layer (traced rounds, %d updates):\n", rec.traced)
		printMetrics(w, res.layers)
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		switch {
		case m.absent:
			fmt.Fprintf(w, "  %-36s %14s %-6s (%d samples < %d)\n", m.name, "absent", m.unit, m.n, minSamples)
		case m.n > 0:
			fmt.Fprintf(w, "  %-36s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		default:
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonSummary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary prints the closing JSON line: the BENCHMARK.json end-to-end metrics
// of a plain run, or the per-layer metrics of a traced run. With several
// workloads each metric name is prefixed by its workload. It reports whether
// every workload ran correctly.
func summary(w io.Writer, results []*result, traced bool) bool {
	out := jsonSummary{Correct: true, Metrics: map[string]jsonMetric{}}
	declared := map[string]bool{}
	for _, d := range e2eDefs {
		declared[d.name] = true
	}
	for _, res := range results {
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.rec.attempted
		out.Failed += res.rec.failed + res.rec.mismatched
		prefix := ""
		if len(results) > 1 {
			prefix = res.w.name + "/"
		}
		ms := res.e2e
		if traced {
			ms = res.layers
		}
		for _, m := range ms {
			if !m.absent && (traced || declared[m.name]) {
				out.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clarify-bench: summary: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return out.Correct
}

// cpuModel reads the processor name for the header; "unknown" when the
// platform does not expose it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
