// Package loadgen drives a running clarifyd with synthetic intent traffic
// and reports latency, throughput, and a pass/fail gate — the measurement half
// of the flight-recorder story: journal + replay explain what the daemon
// did, loadgen establishes what it can sustain.
//
// The generator reuses the workload package's paper-shaped corpora for base
// configurations and emits intents in the restricted-English grammar the
// simulated LLM understands, so runs are deterministic per seed and work
// against a daemon in any backend mode. Each worker owns one daemon session
// (concurrent submits to one session are rejected with 409 by design) and
// runs closed-loop, optionally paced to a target arrival rate.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/clarifynet/clarify/server"
	"github.com/clarifynet/clarify/workload"
)

// Config shapes one load run.
type Config struct {
	// BaseURL is the clarifyd root, e.g. "http://127.0.0.1:8080".
	BaseURL string `json:"baseUrl"`
	// Workers is the number of concurrent closed-loop workers; each owns one
	// daemon session (default 4).
	Workers int `json:"workers"`
	// Rate, when positive, paces submissions to this many updates/second
	// across all workers (open-ish loop); zero runs flat out.
	Rate float64 `json:"rate,omitempty"`
	// Duration bounds how long the run starts updates (default 10s); an
	// update in flight at the deadline still runs to its end.
	Duration time.Duration `json:"-"`
	// MaxUpdates, when positive, stops the run after this many updates even
	// if Duration remains.
	MaxUpdates int `json:"maxUpdates,omitempty"`
	// ACLFraction is the fraction of workers driving ACL sessions instead of
	// route-map sessions (default 0.25).
	ACLFraction float64 `json:"aclFraction"`
	// Corpus selects the workload generator: "cloud" (default) or "campus".
	Corpus string `json:"corpus"`
	// Seed makes the intent stream and answer choices deterministic.
	Seed int64 `json:"seed"`
	// UpdateTimeout bounds each update end to end, including question
	// round-trips and backpressure retries (default 60s).
	UpdateTimeout time.Duration `json:"-"`
	// Failover makes workers survive the loss of a replica behind a
	// balancer: when an update fails because the session's backend is
	// draining, ejected, or gone (404/502/503/504 or a transport error),
	// the worker abandons the session, creates a fresh one — which the
	// balancer places on a surviving replica — and retries the intent
	// there. The retried update's latency covers the whole disruption, so
	// the gate's slow count still sees failover time; only updates that
	// exhaust their retries count as failures.
	Failover bool `json:"failover,omitempty"`
	// Rolling, when non-empty, turns the run into a rolling-restart drill:
	// a restarter goroutine SIGTERMs each listed replica in turn (evenly
	// staggered across the run) and waits for its supervisor to bring a new
	// process up. Workers switch from abandon-and-recreate to
	// resume-same-session: an update interrupted by a handoff is polled
	// under its original session and update ID until it finishes on
	// whichever replica the session landed on. A session that stays gone is
	// counted in Report.LostSessions — the number a zero-downtime rollout
	// must hold at zero.
	Rolling []RollingTarget `json:"rolling,omitempty"`
}

// RollingTarget identifies one replica the rolling driver restarts: its
// direct base URL (health checks bypass the balancer) and the pidfile its
// supervisor rewrites on every start.
type RollingTarget struct {
	BaseURL string `json:"baseUrl"`
	PIDFile string `json:"pidFile"`
}

// ParseRolling parses a -rolling flag value: comma-separated url=pidfile
// pairs, e.g. "http://127.0.0.1:8081=/tmp/a.pid,http://127.0.0.1:8082=/tmp/b.pid".
func ParseRolling(spec string) ([]RollingTarget, error) {
	var out []RollingTarget
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		url, pidfile, ok := strings.Cut(part, "=")
		if !ok || url == "" || pidfile == "" {
			return nil, fmt.Errorf("loadgen: bad -rolling entry %q (want url=pidfile)", part)
		}
		out = append(out, RollingTarget{BaseURL: url, PIDFile: pidfile})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: -rolling spec %q names no replicas", spec)
	}
	return out, nil
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

func (c Config) duration() time.Duration {
	if c.Duration <= 0 {
		return 10 * time.Second
	}
	return c.Duration
}

func (c Config) updateTimeout() time.Duration {
	if c.UpdateTimeout <= 0 {
		return 60 * time.Second
	}
	return c.UpdateTimeout
}

func (c Config) aclFraction() float64 {
	if c.ACLFraction < 0 {
		return 0
	}
	if c.ACLFraction > 1 {
		return 1
	}
	if c.ACLFraction == 0 {
		return 0.25
	}
	return c.ACLFraction
}

// LatencySummary aggregates observed update latencies in milliseconds.
// Percentiles here are exact (computed from every sample), unlike the
// bucket-interpolated estimates in the daemon's /metrics.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// Report is the JSON document cmd/clarify-load emits.
type Report struct {
	Config Config `json:"config"`
	// DurationSeconds is the measured run length.
	DurationSeconds float64 `json:"durationSeconds"`
	// Updates counts terminal updates; Failures those that ended in error
	// (including timeouts); Degraded those served by a fallback backend.
	Updates  int `json:"updates"`
	Failures int `json:"failures"`
	Degraded int `json:"degraded"`
	// Disruptions counts mid-update replica losses survived by failover
	// (session re-created on another replica and the intent retried).
	Disruptions int `json:"disruptions,omitempty"`
	// Restarts counts replicas the rolling driver cycled (SIGTERM, old
	// process gone, new process healthy); LostSessions counts sessions that
	// did not survive a handoff and had to be re-created. A clean rolling
	// restart reports Restarts == len(Config.Rolling) and LostSessions == 0.
	Restarts     int `json:"restarts,omitempty"`
	LostSessions int `json:"lostSessions,omitempty"`
	// Throughput is successful updates per second.
	Throughput float64 `json:"throughput"`
	// Latency summarizes per-update latency as measured by the client.
	Latency LatencySummary `json:"latency"`
	// Questions summarizes clarifying questions per successful update as
	// observed client-side (exact percentiles) — the interaction cost the
	// disambiguation dialogue imposed on operators.
	Questions QuestionsSummary `json:"questions"`
	// Errors histograms failure messages (bounded).
	Errors map[string]int `json:"errors,omitempty"`
	// SlowUpdates counts successful updates slower than slowUpdateMs.
	SlowUpdates int `json:"slowUpdates"`
	// Pass is the run's gate: false (red) when any update failed or
	// slowPercentRed percent or more of the updates were slow.
	Pass bool `json:"pass"`
	// DaemonAmbiguity is the ambiguity block of the daemon's /metrics at
	// run end, when reachable: information gained per question and per
	// strategy, for the run's traffic. Absent when the run goes through
	// clarify-lb, whose /metrics carries no such block.
	DaemonAmbiguity *server.AmbiguitySnapshot `json:"daemonAmbiguity,omitempty"`
}

// QuestionsSummary aggregates questions-per-update counts. Percentiles are
// exact, computed from every successful update's question count.
type QuestionsSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// summarizeQuestions folds per-update question counts (sorted in place).
func summarizeQuestions(counts []float64) QuestionsSummary {
	if len(counts) == 0 {
		return QuestionsSummary{}
	}
	sort.Float64s(counts)
	var sum float64
	for _, c := range counts {
		sum += c
	}
	return QuestionsSummary{
		Count: len(counts),
		Mean:  sum / float64(len(counts)),
		P50:   percentile(counts, 0.50),
		P95:   percentile(counts, 0.95),
		P99:   percentile(counts, 0.99),
		Max:   counts[len(counts)-1],
	}
}

const maxErrorKinds = 16

// The gate's thresholds: an update slower than slowUpdateMs is slow, and a
// run is red when any update failed or slowPercentRed percent or more of its
// updates were slow. On a run shorter than five minutes that is the ticket
// alert of the latency objective "99% of updates under 500 ms" (burn rate 6)
// evaluated over the whole run, with any failure red as well.
const (
	slowUpdateMs   = 500
	slowPercentRed = 6
)

// pass is the gate's verdict on a run of updates, of which failures failed
// and slow succeeded slower than slowUpdateMs.
func pass(updates, failures, slow int) bool {
	return failures == 0 && (slow == 0 || slow*100 < slowPercentRed*updates)
}

// Run executes one load run against a live daemon.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: Config.BaseURL is required")
	}
	if cfg.Corpus == "" {
		cfg.Corpus = "cloud"
	}
	workers := cfg.workers()
	nACL := int(float64(workers)*cfg.aclFraction() + 0.5)
	if nACL > workers {
		nACL = workers
	}
	nRM := workers - nACL

	// Corpus configs are deterministic per seed; generate exactly as many as
	// the workers need. Every config holds one "ACL<i>"/"RM<i>" target.
	var corpus *workload.Corpus
	switch cfg.Corpus {
	case "cloud":
		corpus = workload.Cloud(cfg.Seed, nACL, nRM)
	case "campus":
		corpus = workload.Campus(cfg.Seed, nACL, nRM)
	default:
		return nil, fmt.Errorf("loadgen: unknown corpus %q (want cloud or campus)", cfg.Corpus)
	}

	client := &server.Client{BaseURL: cfg.BaseURL}
	runCtx, cancel := context.WithTimeout(ctx, cfg.duration())
	defer cancel()

	// Per-worker pacing: a worker sleeps workers/rate between submissions
	// so the run approximates its target arrival rate.
	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(workers) / cfg.Rate * float64(time.Second))
	}

	type sample struct {
		ms        float64
		failed    bool
		degraded  bool
		questions int
		errMsg    string
	}
	var (
		mu           sync.Mutex
		samples      []sample
		total        int
		disruptions  int
		lostSessions int
		rollingErrs  []string
	)
	rolling := len(cfg.Rolling) > 0
	budgetLeft := func() bool {
		if cfg.MaxUpdates <= 0 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		if total >= cfg.MaxUpdates {
			return false
		}
		total++
		return true
	}

	var wg sync.WaitGroup
	start := time.Now()

	// The restarter runs on the caller's context, not runCtx: the last
	// replica's recovery may straddle the run's end, and a drill that leaves
	// a replica down is a failed drill.
	var restarts int
	restarterDone := make(chan struct{})
	if rolling {
		go func() {
			defer close(restarterDone)
			rollingRestart(ctx, cfg.Rolling, start, cfg.duration(),
				func() { mu.Lock(); restarts++; mu.Unlock() },
				func(msg string) { mu.Lock(); rollingErrs = append(rollingErrs, msg); mu.Unlock() })
		}()
	} else {
		close(restarterDone)
	}

	for w := 0; w < workers; w++ {
		isACL := w < nACL
		var cfgIdx int
		if isACL {
			cfgIdx = w
		} else {
			cfgIdx = w - nACL
		}
		var baseCfg = corpus.RouteMapConfigs
		target := fmt.Sprintf("RM%d", cfgIdx)
		if isACL {
			baseCfg = corpus.ACLConfigs
			target = fmt.Sprintf("ACL%d", cfgIdx)
		}
		if cfgIdx >= len(baseCfg) {
			continue // corpus generated fewer configs than asked; skip worker
		}
		configText := baseCfg[cfgIdx].Print()

		wg.Add(1)
		go func(w int, configText, target string, isACL bool) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			sid, err := client.CreateSession(runCtx, server.CreateSessionRequest{Config: configText})
			if err != nil {
				mu.Lock()
				samples = append(samples, sample{failed: true, errMsg: "create session: " + trimErr(err)})
				mu.Unlock()
				return
			}
			defer func() { client.DeleteSession(context.Background(), sid) }()
			answer := func(q server.Question) (int, error) {
				return 1 + rng.Intn(2), nil
			}
			for runCtx.Err() == nil && budgetLeft() {
				intentText := Intent(rng, isACL)
				t0 := time.Now()
				var u server.UpdateInfo
				var err error
				for attempt := 0; ; attempt++ {
					// An update outlives the run deadline: once started it is
					// driven to the end, so the session is deleted and the
					// daemon's ambiguity view is fetched only after it is
					// recorded.
					uctx, ucancel := context.WithTimeout(ctx, cfg.updateTimeout())
					if rolling {
						u, err = resumeUpdate(uctx, client, sid, intentText, target, answer)
					} else {
						u, err = client.RunUpdate(uctx, sid, intentText, target, answer)
					}
					ucancel()
					if err == nil || attempt >= maxFailovers || runCtx.Err() != nil {
						break
					}
					if rolling && errors.Is(err, errSessionLost) {
						// The session did not survive the handoff. That is the
						// failure a rolling drill exists to count; the worker
						// re-homes so the rest of the run still produces load.
						newSid, cerr := recreateSession(runCtx, client, configText)
						if cerr != nil {
							break
						}
						mu.Lock()
						lostSessions++
						mu.Unlock()
						sid = newSid
						continue
					}
					if !cfg.Failover || !failoverable(err) {
						break
					}
					// The replica holding the session is draining, ejected, or
					// gone. Abandon the session, create a fresh one (the
					// balancer places it on a survivor), and retry the intent.
					newSid, cerr := recreateSession(runCtx, client, configText)
					if cerr != nil {
						break
					}
					mu.Lock()
					disruptions++
					mu.Unlock()
					sid = newSid
				}
				elapsed := time.Since(t0)
				sm := sample{ms: float64(elapsed) / float64(time.Millisecond)}
				switch {
				case err != nil:
					if runCtx.Err() != nil {
						break // run ended mid-update; don't count the partial
					}
					sm.failed = true
					sm.errMsg = trimErr(err)
				case u.Status != server.StatusDone:
					sm.failed = true
					sm.errMsg = u.Error
				default:
					sm.degraded = u.Degraded
					if u.Result != nil {
						sm.questions = u.Result.Questions
					}
				}
				if runCtx.Err() != nil && err != nil {
					break
				}
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
				if pace > 0 {
					select {
					case <-time.After(pace):
					case <-runCtx.Done():
					}
				}
			}
		}(w, configText, target, isACL)
	}
	wg.Wait()
	<-restarterDone
	elapsed := time.Since(start)

	rep := &Report{
		Config:          cfg,
		DurationSeconds: elapsed.Seconds(),
		Disruptions:     disruptions,
		Restarts:        restarts,
		LostSessions:    lostSessions,
		Errors:          map[string]int{},
	}
	for _, msg := range rollingErrs {
		if len(rep.Errors) < maxErrorKinds || rep.Errors[msg] > 0 {
			rep.Errors[msg]++
		}
	}
	var lat []float64
	var sumMs float64
	var qcounts []float64
	for _, sm := range samples {
		rep.Updates++
		if sm.failed {
			rep.Failures++
			if len(rep.Errors) < maxErrorKinds || rep.Errors[sm.errMsg] > 0 {
				rep.Errors[sm.errMsg]++
			}
			continue
		}
		if sm.degraded {
			rep.Degraded++
		}
		if sm.ms > slowUpdateMs {
			rep.SlowUpdates++
		}
		lat = append(lat, sm.ms)
		sumMs += sm.ms
		qcounts = append(qcounts, float64(sm.questions))
	}
	if elapsed > 0 {
		rep.Throughput = float64(len(lat)) / elapsed.Seconds()
	}
	rep.Latency = summarize(lat, sumMs)
	rep.Questions = summarizeQuestions(qcounts)
	rep.Pass = pass(rep.Updates, rep.Failures, rep.SlowUpdates)
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	// Fetch the daemon's ambiguity view with a fresh context: runCtx is
	// spent.
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if m, err := client.Metrics(sctx); err == nil {
		rep.DaemonAmbiguity = m.Ambiguity
	}
	return rep, nil
}

// maxFailovers bounds session re-creations per update under Config.Failover.
const maxFailovers = 3

// failoverable classifies an update error as "the replica is lost, not the
// request": gateway-ish statuses from the balancer (backend ejected or
// draining), a vanished session, or a transport-level failure. Context
// expiry is the run ending or the update timing out — not a replica loss.
func failoverable(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusNotFound, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// recreateSession re-homes a worker after its replica died: retries session
// creation with doubling backoff until it succeeds or the run ends.
func recreateSession(ctx context.Context, client *server.Client, configText string) (string, error) {
	backoff := 100 * time.Millisecond
	for {
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		sid, err := client.CreateSession(cctx, server.CreateSessionRequest{Config: configText})
		cancel()
		if err == nil {
			return sid, nil
		}
		if ctx.Err() != nil {
			return "", err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return "", err
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// summarize sorts lat in place and folds it into a LatencySummary.
func summarize(lat []float64, sumMs float64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(lat)
	return LatencySummary{
		Count:  len(lat),
		MeanMs: sumMs / float64(len(lat)),
		P50Ms:  percentile(lat, 0.50),
		P95Ms:  percentile(lat, 0.95),
		P99Ms:  percentile(lat, 0.99),
		MaxMs:  lat[len(lat)-1],
	}
}

// percentile reads the q-quantile from ascending samples (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func trimErr(err error) string {
	s := err.Error()
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Intent generates one restricted-English intent the simulated LLM can
// synthesize from: route-map intents in the §2.1 walkthrough's phrasing,
// ACL intents in the grammar's from/to/port form. Deterministic per rng.
func Intent(rng *rand.Rand, acl bool) string {
	if acl {
		proto := []string{"tcp", "udp"}[rng.Intn(2)]
		return fmt.Sprintf(
			"Add an entry that permits %s traffic from 10.%d.%d.0/24 to any host on port %d.",
			proto, rng.Intn(250), rng.Intn(250), 1024+rng.Intn(40000))
	}
	octet := 1 + rng.Intn(220)
	maskHi := 17 + rng.Intn(12)
	return fmt.Sprintf(
		"Write a route-map stanza that permits routes containing the prefix %d.%d.0.0/16 "+
			"with mask length less than or equal to %d and tagged with the community %d:%d. "+
			"Their MED value should be set to %d.",
		octet, rng.Intn(250), maskHi, 100+rng.Intn(900), rng.Intn(100), 1+rng.Intn(200))
}
