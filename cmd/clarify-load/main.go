// Command clarify-load drives a running clarifyd with synthetic intent
// traffic and emits a JSON latency/throughput report with a pass/fail gate
// on stdout.
//
// Usage:
//
//	clarify-load -addr http://127.0.0.1:8080 [-workers 4] [-duration 10s]
//	             [-rate 20] [-max-updates 100] [-acl-fraction 0.25]
//	             [-corpus cloud] [-seed 1] [-failover] [-out report.json]
//	             [-rolling url=pidfile,url=pidfile]
//
// -addr may point at a single clarifyd or at a clarify-lb fronting several;
// with -failover the run survives losing a replica mid-run (sessions are
// re-created on a survivor and the interrupted intent retried, with the
// disruption latency charged to the gate's slow count).
//
// With -rolling the run doubles as a zero-downtime rollout drill: each
// listed replica is SIGTERMed in turn (its supervisor must restart it,
// rewriting the pidfile) while workers insist on their sessions surviving
// the handoff — same session ID, same in-flight update, same parked
// question on whichever replica the session lands on.
//
// Exit status is 0 when the run completed and its gate is green, 1 when the
// gate is red — any update failed, or 6% or more of the updates were slower
// than 500 ms — or, under -rolling, when any session was lost or any
// replica failed to cycle. 2 on operational errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/clarifynet/clarify/loadgen"
)

func main() {
	var cfg loadgen.Config
	flag.StringVar(&cfg.BaseURL, "addr", "http://127.0.0.1:8080", "clarifyd base URL")
	flag.IntVar(&cfg.Workers, "workers", 4, "concurrent workers (one daemon session each)")
	flag.Float64Var(&cfg.Rate, "rate", 0, "target updates/second across all workers (0 = flat out)")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "run length")
	flag.IntVar(&cfg.MaxUpdates, "max-updates", 0, "stop after this many updates (0 = until -duration)")
	flag.Float64Var(&cfg.ACLFraction, "acl-fraction", 0.25, "fraction of workers driving ACL intents")
	flag.StringVar(&cfg.Corpus, "corpus", "cloud", "base-config corpus: cloud or campus")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic seed for intents and answers")
	flag.DurationVar(&cfg.UpdateTimeout, "update-timeout", 60*time.Second, "per-update timeout")
	flag.BoolVar(&cfg.Failover, "failover", false, "survive replica loss behind clarify-lb: re-create the session elsewhere and retry the intent")
	rollingSpec := flag.String("rolling", "", "rolling-restart drill: comma-separated url=pidfile replicas to SIGTERM in turn; sessions must survive the handoffs")
	outPath := flag.String("out", "", "write the JSON report here instead of stdout")
	quiet := flag.Bool("quiet", false, "suppress the summary line on stderr")
	flag.Parse()

	if *rollingSpec != "" {
		targets, err := loadgen.ParseRolling(*rollingSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clarify-load: -rolling:", err)
			os.Exit(2)
		}
		cfg.Rolling = targets
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clarify-load:", err)
		os.Exit(2)
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"clarify-load: %d updates (%d failed, %d degraded) in %.1fs; %.1f ok/s; p50 %.0fms p95 %.0fms p99 %.0fms\n",
			rep.Updates, rep.Failures, rep.Degraded, rep.DurationSeconds,
			rep.Throughput, rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms)
		if rep.Questions.Count > 0 {
			fmt.Fprintf(os.Stderr,
				"clarify-load: questions/update: mean %.2f p50 %.0f p95 %.0f p99 %.0f max %.0f\n",
				rep.Questions.Mean, rep.Questions.P50, rep.Questions.P95, rep.Questions.P99, rep.Questions.Max)
		}
		if amb := rep.DaemonAmbiguity; amb != nil && amb.Rollup != nil && amb.Rollup.Total.Questions > 0 {
			fmt.Fprintf(os.Stderr,
				"clarify-load: ambiguity: %.1f bits resolved over %d questions (%.2f bits/question), %.1f bits residual\n",
				amb.Rollup.Total.ResolvedBits, amb.Rollup.Total.Questions,
				amb.Rollup.Total.BitsPerQuestion(), amb.Rollup.Total.ResidualBits)
		}
		if rep.Disruptions > 0 {
			fmt.Fprintf(os.Stderr, "clarify-load: %d replica disruptions survived by failover\n", rep.Disruptions)
		}
		if len(cfg.Rolling) > 0 {
			fmt.Fprintf(os.Stderr, "clarify-load: rolling drill: %d/%d replicas cycled, %d session(s) lost\n",
				rep.Restarts, len(cfg.Rolling), rep.LostSessions)
		}
		if !rep.Pass {
			fmt.Fprintf(os.Stderr, "clarify-load: gate RED: %d failed, %d slow of %d updates\n",
				rep.Failures, rep.SlowUpdates, rep.Updates)
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clarify-load:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "clarify-load:", err)
		os.Exit(2)
	}
	if !rep.Pass {
		os.Exit(1)
	}
	// A rolling drill has its own bar on top of the gate: every replica
	// cycled and no session lost.
	if len(cfg.Rolling) > 0 && (rep.LostSessions > 0 || rep.Restarts != len(cfg.Rolling)) {
		os.Exit(1)
	}
}
