// Package replay re-executes journaled Clarify updates offline, for
// postmortems and regression bisection: every journal record carries the
// intent, the base configuration, the SimLLM fault plan its synthesis calls
// consumed, and the oracle Q&A transcript — everything the pipeline needs
// to run again without a network or an operator. Replay runs each record
// against a freshly seeded SimLLM and a disambig.Transcript scripted with
// the recorded answers, then diffs what happened against what the recording
// says happened: final configuration bytes, span-tree stage shape, and the
// terminal error.
//
// A matching replay is strong evidence the pipeline is still the pipeline
// that served the update; a mismatch pinpoints which stage diverged.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/symbolic"
)

// Status classifies one record's replay.
type Status string

// Replay statuses.
const (
	// StatusMatch: the replay reproduced the recorded outcome exactly.
	StatusMatch Status = "match"
	// StatusConfigMismatch: the replay succeeded but produced a different
	// final configuration.
	StatusConfigMismatch Status = "config-mismatch"
	// StatusShapeMismatch: configs agree but the span trees ran through
	// different stages.
	StatusShapeMismatch Status = "shape-mismatch"
	// StatusErrorMismatch: the recorded and replayed terminal errors differ
	// (including error vs success either way).
	StatusErrorMismatch Status = "error-mismatch"
	// StatusLedgerMismatch: configs and shape agree but the replayed
	// ambiguity ledger is not byte-identical to the recorded one — the
	// symbolic candidate space or the information-gain accounting drifted.
	StatusLedgerMismatch Status = "ledger-mismatch"
	// StatusSkipped: the record cannot be replayed standalone (reuse-path
	// records carry no LLM calls to re-run).
	StatusSkipped Status = "skipped"
	// StatusBadRecord: the record is self-inconsistent (unparseable base
	// config, unknown fault name, transcript exhausted early, ...).
	StatusBadRecord Status = "bad-record"
)

// Outcome is one record's replay verdict.
type Outcome struct {
	// Index is the record's position in the scan (0-based).
	Index int `json:"index"`
	// TraceID and Target echo the record for cross-referencing.
	TraceID string `json:"traceId,omitempty"`
	Target  string `json:"target,omitempty"`
	Status  Status `json:"status"`
	// Detail explains any non-match (first diff line, shape pair, ...).
	Detail string `json:"detail,omitempty"`
	// LedgerChecked reports that the record carried an ambiguity ledger
	// (schema ≥ 3) and the replayed ledger was byte-compared against it.
	LedgerChecked bool `json:"ledgerChecked,omitempty"`
}

// Summary aggregates a replay run, emitted as cmd/clarify-replay's report.
type Summary struct {
	// Read reports what the journal scan itself encountered, including
	// crash-truncated records that were skipped.
	Read journal.ReadStats `json:"read"`
	// Replayed counts records actually re-executed.
	Replayed int `json:"replayed"`
	// Matches counts replays that reproduced the recording exactly.
	Matches int `json:"matches"`
	// Mismatches counts config/shape/error divergences.
	Mismatches int `json:"mismatches"`
	// Skipped counts records not replayable standalone.
	Skipped int `json:"skipped"`
	// BadRecords counts self-inconsistent records.
	BadRecords int `json:"badRecords"`
	// LedgersChecked counts records whose recorded ambiguity ledger was
	// byte-compared against the replay's; LedgerDivergence counts the
	// comparisons that failed (also included in Mismatches).
	LedgersChecked   int `json:"ledgersChecked"`
	LedgerDivergence int `json:"ledgerDivergence"`
	// Outcomes lists every record's verdict in scan order.
	Outcomes []Outcome `json:"outcomes"`
}

// Ok reports whether every replayed record matched its recording.
func (s Summary) Ok() bool { return s.Mismatches == 0 && s.BadRecords == 0 }

// Shape renders a span tree's stage structure as a canonical string:
// "name(child,child(grandchild))". Durations, attributes, and events are
// deliberately excluded — two runs of the same pipeline match on Shape even
// though every timing differs.
func Shape(sp *obs.Span) string {
	if sp == nil {
		return ""
	}
	if len(sp.Children) == 0 {
		return sp.Name
	}
	parts := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		parts[i] = Shape(c)
	}
	return sp.Name + "(" + strings.Join(parts, ",") + ")"
}

// Options configures a replay run.
type Options struct {
	// SpaceCache, when non-nil, is shared across replays (same win as in the
	// live pipeline when many records target one config).
	SpaceCache *symbolic.SpaceCache
	// Journal, when non-nil, records the replayed updates themselves — a
	// replay journal a second replay can be checked against.
	Journal *journal.Journal
}

// Record replays one journal record and reports the verdict. The index is
// echoed into the outcome.
func Record(ctx context.Context, rec *journal.Record, idx int, opts Options) Outcome {
	out := Outcome{Index: idx, TraceID: rec.TraceID, Target: rec.Target}
	switch rec.Kind {
	case journal.KindUpdate:
		// An ordinary update record: falls through to re-execution below.
	case journal.KindSessionSnapshot, journal.KindSessionRestore:
		// Lifecycle records carry no pipeline work to re-run, but they do
		// carry a config and its symbolic fingerprint — check the pair is
		// internally consistent, the same check the restore path enforces.
		cfg, err := ios.Parse(rec.BaseConfig)
		if err != nil {
			out.Status = StatusBadRecord
			out.Detail = rec.Kind + " config does not parse: " + err.Error()
			return out
		}
		if fp := symbolic.Fingerprint(cfg); fp != rec.ConfigFingerprint {
			out.Status = StatusBadRecord
			out.Detail = fmt.Sprintf("%s fingerprint %s does not match config (computed %s)", rec.Kind, rec.ConfigFingerprint, fp)
			return out
		}
		out.Status = StatusMatch
		out.Detail = rec.Kind + ": config/fingerprint consistent"
		return out
	default:
		// A kind this build does not know — from a newer writer. Skip, never
		// fail: the rest of the journal is still checkable.
		out.Status = StatusSkipped
		out.Detail = "unknown record kind " + rec.Kind
		return out
	}
	if rec.Reused {
		out.Status = StatusSkipped
		out.Detail = "reuse-path record: no LLM calls to replay standalone"
		return out
	}
	base, err := ios.Parse(rec.BaseConfig)
	if err != nil {
		out.Status = StatusBadRecord
		out.Detail = "base config does not parse: " + err.Error()
		return out
	}
	var faults []llm.Fault
	for _, name := range rec.SimFaults {
		f, err := llm.ParseFault(name)
		if err != nil {
			out.Status = StatusBadRecord
			out.Detail = err.Error()
			return out
		}
		faults = append(faults, f)
	}
	oracle := &disambig.Transcript{Script: rec.Answers}
	var replayed *obs.Trace
	sess := &clarify.Session{
		Client:           llm.NewSimLLM(faults...),
		Config:           base,
		RouteOracle:      oracle,
		ACLOracle:        oracle,
		MaxAttempts:      rec.MaxAttempts,
		SkipVerification: rec.SkipVerification,
		SpaceCache:       opts.SpaceCache,
		Observer:         obs.SinkFunc(func(t *obs.Trace) { replayed = t }),
		Journal:          opts.Journal,
		JournalSession:   "replay",
	}
	res, rerr := sess.Submit(ctx, rec.Intent, rec.Target)
	if err := oracle.Err(); err != nil {
		out.Status = StatusBadRecord
		out.Detail = err.Error()
		return out
	}

	// Error outcomes must agree before anything else is comparable.
	replayErr := ""
	if rerr != nil {
		replayErr = rerr.Error()
	}
	if replayErr != rec.Error {
		out.Status = StatusErrorMismatch
		out.Detail = fmt.Sprintf("recorded error %q, replay error %q", rec.Error, replayErr)
		return out
	}
	// Successful updates must land on byte-identical configurations.
	if rerr == nil {
		finalText := ""
		if res != nil && res.Config != nil {
			finalText = res.Config.Print()
		}
		if finalText != rec.FinalConfig {
			out.Status = StatusConfigMismatch
			out.Detail = firstDiffLine(rec.FinalConfig, finalText)
			return out
		}
	}
	// And the pipelines must have run through the same stages.
	if rec.Trace != nil && replayed != nil {
		want, got := Shape(rec.Trace.Root), Shape(replayed.Root)
		if want != got {
			out.Status = StatusShapeMismatch
			out.Detail = fmt.Sprintf("recorded shape %s, replay shape %s", want, got)
			return out
		}
	}
	// Schema-3 records carry the ambiguity ledger; the replay (always
	// traced, so always metered) must reproduce it byte for byte — model
	// counting over the candidate space is as deterministic as the configs.
	// Records without a ledger (v2 journals, ledger-off recordings) are not
	// comparable and pass.
	if rec.Ambiguity != nil {
		out.LedgerChecked = true
		var led *ambiguity.Ledger
		if res != nil {
			if res.RouteInsert != nil {
				led = res.RouteInsert.Ambiguity
			}
			if res.ACLInsert != nil {
				led = res.ACLInsert.Ambiguity
			}
		}
		want, werr := json.Marshal(rec.Ambiguity)
		got, gerr := json.Marshal(led)
		if werr != nil || gerr != nil || led == nil || !bytes.Equal(want, got) {
			out.Status = StatusLedgerMismatch
			out.Detail = fmt.Sprintf("recorded ledger %s, replay ledger %s", want, got)
			return out
		}
	}
	out.Status = StatusMatch
	return out
}

// firstDiffLine locates the first line where two texts diverge.
func firstDiffLine(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: recorded %q, replay %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("recorded %d line(s), replay %d line(s)", len(wl), len(gl))
}

// Dir replays every record in a journal directory in write order.
func Dir(ctx context.Context, dir string, opts Options) (Summary, error) {
	var sum Summary
	idx := 0
	stats, err := journal.Scan(dir, func(rec *journal.Record) error {
		out := Record(ctx, rec, idx, opts)
		idx++
		sum.Outcomes = append(sum.Outcomes, out)
		if out.LedgerChecked {
			sum.LedgersChecked++
		}
		switch out.Status {
		case StatusSkipped:
			sum.Skipped++
		case StatusBadRecord:
			sum.BadRecords++
			sum.Replayed++
		case StatusMatch:
			sum.Matches++
			sum.Replayed++
		case StatusLedgerMismatch:
			sum.LedgerDivergence++
			sum.Mismatches++
			sum.Replayed++
		default:
			sum.Mismatches++
			sum.Replayed++
		}
		return nil
	})
	sum.Read = stats
	return sum, err
}
