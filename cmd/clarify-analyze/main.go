// Command clarify-analyze reads a flight-recorder journal offline and
// reports the disambiguation loop's information-theoretic efficiency: how
// many bits of candidate-space ambiguity updates started with, how many
// bits each clarifying question resolved, and how much ambiguity remained
// when configurations were accepted — broken down per insertion strategy
// and per intent category (route-map vs acl).
//
// It is the third leg of the telemetry agreement: the same ledgers the live
// daemon aggregates in the ambiguity block of its /metrics are persisted in
// the journal, so analyzing a replica's journal after a run must reproduce
// that replica's live rollup.
//
// Usage:
//
//	clarify-analyze -journal DIR [-out report.json] [-quiet]
//	                [-min-updates N] [-min-bits-per-question X]
//	                [-max-mean-residual-bits X] [-require-strategies a,b]
//
// The JSON report goes to stdout (or -out); the human-readable tables go to
// stderr. Exit status is 0 when every configured gate passes, 1 when a gate
// fails, 2 on operational errors. Crash-truncated journal tails and
// newer-schema records are skipped and counted, never fatal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/journal"
)

// Report is the JSON document clarify-analyze emits.
type Report struct {
	// Dir is the analyzed journal directory.
	Dir string `json:"dir"`
	// Records counts records scanned; Updates the update-kind records among
	// them; Metered those carrying an ambiguity ledger; Failed those that
	// ended in a pipeline error.
	Records int `json:"records"`
	Updates int `json:"updates"`
	Metered int `json:"metered"`
	Failed  int `json:"failed"`
	// Read carries the scanner's low-level stats (segments, corrupt lines,
	// skipped newer-schema records).
	Read journal.ReadStats `json:"read"`
	// Rollup aggregates every ledger: totals plus the per-strategy and
	// per-kind (intent category) tables.
	Rollup *ambiguity.Rollup `json:"rollup"`
	// Gates lists each configured threshold with its measured value.
	Gates []GateResult `json:"gates,omitempty"`
	// Pass is false when any gate failed.
	Pass bool `json:"pass"`
}

// GateResult is one exit-code gate's evaluation.
type GateResult struct {
	Name      string  `json:"name"`
	Threshold float64 `json:"threshold"`
	Value     float64 `json:"value"`
	Pass      bool    `json:"pass"`
}

func main() {
	dir := flag.String("journal", "", "journal directory to analyze (required)")
	outPath := flag.String("out", "", "write the JSON report here instead of stdout")
	quiet := flag.Bool("quiet", false, "suppress the tables on stderr")
	minUpdates := flag.Int("min-updates", 0, "fail unless at least this many metered updates were found")
	minBitsPerQ := flag.Float64("min-bits-per-question", -1, "fail when the aggregate bits resolved per question is below this (-1 disables)")
	maxResidual := flag.Float64("max-mean-residual-bits", -1, "fail when the mean residual ambiguity per metered update exceeds this (-1 disables)")
	requireStrategies := flag.String("require-strategies", "", "comma-separated strategy names that must appear with at least one metered update each")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "clarify-analyze: -journal is required")
		os.Exit(2)
	}

	rep := &Report{Dir: *dir, Rollup: ambiguity.NewRollup(), Pass: true}
	stats, err := journal.Scan(*dir, func(rec *journal.Record) error {
		rep.Records++
		if rec.Kind != journal.KindUpdate {
			return nil
		}
		rep.Updates++
		if rec.Error != "" {
			rep.Failed++
		}
		if rec.Ambiguity != nil {
			rep.Metered++
			rep.Rollup.Add(rec.Ambiguity)
		}
		return nil
	})
	rep.Read = stats
	if err != nil {
		fmt.Fprintln(os.Stderr, "clarify-analyze:", err)
		os.Exit(2)
	}

	gate := func(name string, threshold, value float64, pass bool) {
		rep.Gates = append(rep.Gates, GateResult{Name: name, Threshold: threshold, Value: value, Pass: pass})
		if !pass {
			rep.Pass = false
		}
	}
	if *minUpdates > 0 {
		gate("min-updates", float64(*minUpdates), float64(rep.Metered), rep.Metered >= *minUpdates)
	}
	if *minBitsPerQ >= 0 {
		v := rep.Rollup.Total.BitsPerQuestion()
		gate("min-bits-per-question", *minBitsPerQ, v, rep.Rollup.Total.Questions == 0 || v >= *minBitsPerQ)
	}
	if *maxResidual >= 0 {
		mean := 0.0
		if rep.Metered > 0 {
			mean = rep.Rollup.Total.ResidualBits / float64(rep.Metered)
		}
		gate("max-mean-residual-bits", *maxResidual, mean, mean <= *maxResidual)
	}
	if *requireStrategies != "" {
		for _, name := range strings.Split(*requireStrategies, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			st := rep.Rollup.Strategies[name]
			n := 0
			if st != nil {
				n = st.Updates
			}
			gate("require-strategy:"+name, 1, float64(n), n >= 1)
		}
	}

	if !*quiet {
		printTables(os.Stderr, rep)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clarify-analyze:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "clarify-analyze:", err)
		os.Exit(2)
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

// printTables renders the per-strategy and per-kind efficiency tables.
func printTables(w *os.File, rep *Report) {
	fmt.Fprintf(w, "clarify-analyze: %d record(s): %d update(s), %d metered, %d failed; %d corrupt line(s), %d skipped-unknown-version\n",
		rep.Records, rep.Updates, rep.Metered, rep.Failed, rep.Read.Skipped, rep.Read.SkippedUnknownVersion)
	printTable(w, "strategy", rep.Rollup.StrategyNames(), rep.Rollup.Strategies, rep.Rollup.Total)
	printTable(w, "kind", rep.Rollup.KindNames(), rep.Rollup.Kinds, rep.Rollup.Total)
	for _, g := range rep.Gates {
		verdict := "pass"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "gate %-26s threshold %8.2f  value %8.2f  %s\n", g.Name, g.Threshold, g.Value, verdict)
	}
}

// printTable renders one breakdown table plus the shared total row.
func printTable(w *os.File, label string, names []string, rows map[string]*ambiguity.StrategyStats, total ambiguity.StrategyStats) {
	fmt.Fprintf(w, "\n%-12s %8s %10s %9s %10s %10s %10s %8s\n",
		label, "updates", "questions", "q/update", "initial", "resolved", "residual", "bits/q")
	for _, name := range names {
		printRow(w, name, rows[name])
	}
	printRow(w, "total", &total)
}

func printRow(w *os.File, name string, s *ambiguity.StrategyStats) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "%-12s %8d %10d %9.2f %10.1f %10.1f %10.1f %8.2f\n",
		name, s.Updates, s.Questions, s.MeanQuestions(),
		s.InitialBits, s.ResolvedBits, s.ResidualBits, s.BitsPerQuestion())
}
