// Package journal is the Clarify flight recorder: a durable, append-only
// JSONL log with one self-contained record per pipeline update. Where the
// server's /debug/traces ring keeps only the most recent span trees in
// memory, the journal survives crashes, drains, and restarts — every record
// carries everything needed to re-execute the update offline (intent text,
// base configuration, the symbolic-space fingerprint, the SimLLM fault
// sequence, the oracle Q&A transcript, the final configuration and diff,
// and the full obs.Trace span tree), which is exactly the raw material the
// paper's evaluation methodology is built on: replay many intent→config
// runs and classify how they went.
//
// The writer rotates segments by size and age, prunes old segments beyond a
// retention bound, and offers three fsync policies (never / interval /
// always). A nil *Journal is valid and turns every method into a no-op, so
// instrumented code needs no "is journaling enabled?" branches.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/obs"
)

// SchemaVersion is stamped on every record so future readers can migrate
// old journals. Version history:
//
//	1 — initial format: one record per pipeline update.
//	2 — adds Kind, distinguishing update records from session lifecycle
//	    events ("session-snapshot", "session-restore").
//	3 — adds Ambiguity, the disambiguation information-gain ledger
//	    (candidate-space bits before/per-question/at-accept). Absent on
//	    v1/v2 records and on updates recorded with the ledger off; readers
//	    see a nil ledger, which aggregates as zero.
//
// Readers skip-and-count records stamped with a schema newer than their own
// (see ReadStats.SkippedUnknownVersion) so a journal shared across a rolling
// deploy never fails an older replica's scan.
const SchemaVersion = 3

// Record kinds. The zero value means a pipeline update (every schema-1
// record); lifecycle kinds journal session handoffs.
const (
	// KindUpdate marks one pipeline update (the default, left empty on the
	// wire for schema-1 compatibility).
	KindUpdate = ""
	// KindSessionSnapshot marks a session captured by a draining daemon.
	KindSessionSnapshot = "session-snapshot"
	// KindSessionRestore marks a session rehydrated from a snapshot or a
	// peer handoff.
	KindSessionRestore = "session-restore"
)

// Record is one journaled update. Records are self-contained: replaying one
// needs nothing but the record itself.
type Record struct {
	// Schema is the record format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Kind distinguishes update records (empty) from session lifecycle
	// events (KindSessionSnapshot, KindSessionRestore).
	Kind string `json:"kind,omitempty"`
	// Time is when the update finished.
	Time time.Time `json:"time"`
	// TraceID links the record to the in-memory /debug/traces ring while the
	// trace is retained there.
	TraceID string `json:"traceId,omitempty"`
	// Session labels the serving session (daemon session ID, or "cli").
	Session string `json:"session,omitempty"`
	// Intent and Target are the Submit inputs.
	Intent string `json:"intent"`
	Target string `json:"target"`
	// BaseConfig is the full configuration text the update ran against.
	BaseConfig string `json:"baseConfig"`
	// ConfigFingerprint is the symbolic.SpaceCache content fingerprint of the
	// base configuration (the identity of the BDD universe the verifier and
	// disambiguator worked in).
	ConfigFingerprint string `json:"configFingerprint,omitempty"`
	// MaxAttempts and SkipVerification reproduce the session knobs that
	// change pipeline behaviour.
	MaxAttempts      int  `json:"maxAttempts,omitempty"`
	SkipVerification bool `json:"skipVerification,omitempty"`
	// Reused marks an update served from the verified-snippet cache (no LLM
	// calls); such records cannot be replayed standalone.
	Reused bool `json:"reused,omitempty"`
	// SimFaults is the SimLLM fault sequence consumed by the update's
	// synthesis calls, in call order ("none" entries included), recovered
	// from the trace's sim-fault span attributes. Re-seeding a SimLLM with
	// this plan reproduces the same synthesis outputs.
	SimFaults []string `json:"simFaults,omitempty"`
	// Answers is the oracle Q&A transcript, in question order.
	Answers []disambig.Answer `json:"answers,omitempty"`
	// Ambiguity is the disambiguation information-gain ledger (schema ≥ 3):
	// candidate-space bits before the search, per answered question, and
	// left at accept. Nil on older records and on updates recorded with the
	// ledger off.
	Ambiguity *ambiguity.Ledger `json:"ambiguity,omitempty"`
	// Degraded reports that at least one completion was served by a fallback
	// backend.
	Degraded bool `json:"degraded,omitempty"`
	// Error is the pipeline error, empty on success.
	Error string `json:"error,omitempty"`
	// Attempts is the number of synthesis calls used (successful updates).
	Attempts int `json:"attempts,omitempty"`
	// FinalConfig is the updated configuration text (successful updates).
	FinalConfig string `json:"finalConfig,omitempty"`
	// ConfigDiff is a unified-style line diff BaseConfig → FinalConfig.
	ConfigDiff string `json:"configDiff,omitempty"`
	// DurationMs is the update's wall-clock time.
	DurationMs float64 `json:"durationMs"`
	// Trace is the full span tree recorded for the update.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// FsyncPolicy selects the journal's durability/throughput trade-off.
type FsyncPolicy string

// Fsync policies.
const (
	// FsyncNever leaves flushing to the OS page cache (fastest; a crash can
	// lose recently appended records).
	FsyncNever FsyncPolicy = "never"
	// FsyncInterval flushes and fsyncs on a background ticker (bounded loss
	// window, near-FsyncNever throughput). The default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncAlways flushes and fsyncs every append (no loss window, slowest).
	FsyncAlways FsyncPolicy = "always"
)

// Options configures a Journal. The zero value (plus Dir) is usable:
// 8 MiB segments, no age-based rotation, unlimited retention, interval
// fsync every second.
type Options struct {
	// Dir is the journal directory; it is created if missing.
	Dir string
	// MaxSegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB). The bound is checked before each append, so a segment
	// may overshoot by one record.
	MaxSegmentBytes int64
	// MaxSegmentAge rotates the active segment once it has been open this
	// long (0 disables age-based rotation).
	MaxSegmentAge time.Duration
	// MaxSegments prunes the oldest closed segments beyond this total count
	// (0 keeps everything).
	MaxSegments int
	// Fsync selects the durability policy (default FsyncInterval). Open
	// refuses any value but the three policies and empty.
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval flushes (default 1s).
	FsyncInterval time.Duration
}

func (o Options) maxBytes() int64 {
	if o.MaxSegmentBytes <= 0 {
		return 8 << 20
	}
	return o.MaxSegmentBytes
}

func (o Options) fsyncEvery() time.Duration {
	if o.FsyncInterval <= 0 {
		return time.Second
	}
	return o.FsyncInterval
}

// Stats is a snapshot of journal activity, surfaced in the daemon's
// /metrics body.
type Stats struct {
	// Appended counts records written since Open.
	Appended int64 `json:"appended"`
	// Bytes counts journal bytes written since Open.
	Bytes int64 `json:"bytes"`
	// Rotations counts segment rotations since Open.
	Rotations int64 `json:"rotations"`
	// Pruned counts old segments removed by the retention bound.
	Pruned int64 `json:"pruned"`
	// Errors counts appends or rotations that failed; LastError is the most
	// recent failure's message.
	Errors    int64  `json:"errors"`
	LastError string `json:"lastError,omitempty"`
}

// Journal is the durable update log. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type Journal struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	size     int64
	openedAt time.Time
	seq      int
	closed   bool
	stats    Stats

	stopCh chan struct{}
	doneCh chan struct{}
}

const segmentPattern = "journal-%06d.jsonl"

// Open creates (or reopens) a journal in opts.Dir. A fresh segment is always
// started: an earlier crash's possibly-truncated tail record stays isolated
// in its old segment, where readers skip and count it.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: Options.Dir is required")
	}
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncInterval
	case FsyncNever, FsyncInterval, FsyncAlways:
	default:
		return nil, fmt.Errorf("journal: unknown fsync policy %q (want %s, %s or %s)",
			opts.Fsync, FsyncNever, FsyncInterval, FsyncAlways)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	segs, err := Segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	seq := 0
	for _, s := range segs {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(s), segmentPattern, &n); err == nil && n > seq {
			seq = n
		}
	}
	j := &Journal{opts: opts, seq: seq}
	if err := j.openSegmentLocked(); err != nil {
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		j.stopCh = make(chan struct{})
		j.doneCh = make(chan struct{})
		go j.flusher(opts.fsyncEvery())
	}
	return j, nil
}

// openSegmentLocked starts the next segment; callers hold j.mu (or own j
// exclusively, as in Open).
func (j *Journal) openSegmentLocked() error {
	j.seq++
	path := filepath.Join(j.opts.Dir, fmt.Sprintf(segmentPattern, j.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	j.size = 0
	j.openedAt = time.Now()
	return nil
}

// flusher is the FsyncInterval background loop.
func (j *Journal) flusher(every time.Duration) {
	defer close(j.doneCh)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if !j.closed {
				j.syncLocked()
			}
			j.mu.Unlock()
		case <-j.stopCh:
			return
		}
	}
}

// syncLocked flushes the buffer and fsyncs the segment; callers hold j.mu.
func (j *Journal) syncLocked() {
	if j.w == nil {
		return
	}
	if err := j.w.Flush(); err != nil {
		j.recordErrLocked(err)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.recordErrLocked(err)
	}
}

func (j *Journal) recordErrLocked(err error) {
	j.stats.Errors++
	j.stats.LastError = err.Error()
}

// Append writes one record as a JSON line, rotating first when the active
// segment is over its size or age bound. Safe on a nil journal.
func (j *Journal) Append(rec *Record) error {
	if j == nil || rec == nil {
		return nil
	}
	rec.Schema = SchemaVersion
	data, err := json.Marshal(rec)
	if err != nil {
		j.mu.Lock()
		j.recordErrLocked(err)
		j.mu.Unlock()
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	data = append(data, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after Close")
	}
	if j.size > 0 && (j.size+int64(len(data)) > j.opts.maxBytes() ||
		(j.opts.MaxSegmentAge > 0 && time.Since(j.openedAt) > j.opts.MaxSegmentAge)) {
		if err := j.rotateLocked(); err != nil {
			j.recordErrLocked(err)
			return err
		}
	}
	if _, err := j.w.Write(data); err != nil {
		j.recordErrLocked(err)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(data))
	j.stats.Appended++
	j.stats.Bytes += int64(len(data))
	if j.opts.Fsync == FsyncAlways {
		j.syncLocked()
	}
	return nil
}

// rotateLocked closes the active segment, starts the next one, and prunes
// old segments past the retention bound; callers hold j.mu.
func (j *Journal) rotateLocked() error {
	j.syncLocked()
	if err := j.f.Close(); err != nil {
		j.recordErrLocked(err)
	}
	if err := j.openSegmentLocked(); err != nil {
		return err
	}
	j.stats.Rotations++
	j.pruneLocked()
	return nil
}

// pruneLocked removes the oldest segments beyond MaxSegments; callers hold
// j.mu. Prune errors are counted, not fatal.
func (j *Journal) pruneLocked() {
	if j.opts.MaxSegments <= 0 {
		return
	}
	segs, err := Segments(j.opts.Dir)
	if err != nil {
		j.recordErrLocked(err)
		return
	}
	for len(segs) > j.opts.MaxSegments {
		if err := os.Remove(segs[0]); err != nil {
			j.recordErrLocked(err)
			return
		}
		j.stats.Pruned++
		segs = segs[1:]
	}
}

// Sync forces a flush+fsync of the active segment. Safe on a nil journal.
func (j *Journal) Sync() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.syncLocked()
	}
}

// Stats snapshots the journal counters. Safe on a nil journal.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close flushes, fsyncs, and closes the active segment and stops the
// background flusher. Idempotent and safe on a nil journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.syncLocked()
	err := j.f.Close()
	j.mu.Unlock()
	if j.stopCh != nil {
		close(j.stopCh)
		<-j.doneCh
	}
	return err
}

// Segments lists the journal's segment files in write order (oldest first).
func Segments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("journal: list segments: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}
