// Package snapshot externalizes hosted-session state so a clarifyd can hand
// its sessions to a successor: either a schema-versioned JSON file in a
// snapshot directory (picked up by the next process on the same host) or a
// peer replica via PUT /v1/sessions/{id}/restore (live handoff behind the
// balancer).
//
// A snapshot carries everything the serving layer needs to resurrect the
// session byte-identically: the printed base configuration and its symbolic
// fingerprint, the update history in submission order, cumulative pipeline
// counters, and — the part that makes rolling restarts invisible — the
// pending update's intent plus the transcript of answers delivered so far.
// The pipeline is deterministic given the same config, intent, and answers
// (the replay package proves this), so the restoring daemon re-executes the
// parked update, auto-answering the recorded prefix; the pipeline re-parks
// on the same question with the same sequence number, and the client's next
// poll cannot tell a handoff happened.
package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
)

// SchemaVersion is stamped on every snapshot file and session so future
// readers can migrate — or refuse — old and new formats explicitly. A loader
// skips files (and a restoring server rejects sessions) whose schema is
// newer than it understands.
const SchemaVersion = 1

// Question is the question the pending update was parked on at capture
// time, recorded for diagnostics: after restore the re-executed pipeline
// re-derives it, and the restored question must match this one.
type Question struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	Text string `json:"text"`
}

// PendingUpdate is an update that had not finished when the snapshot was
// taken — typically parked on an unanswered question. The restoring daemon
// re-executes it from the session's base config, replaying Answers, and
// re-parks under the same update ID.
type PendingUpdate struct {
	// ID is the update's serving ID ("u3"); the restored update keeps it so
	// clients polling it never notice the handoff.
	ID string `json:"id"`
	// Intent and Target are the original Submit inputs.
	Intent string `json:"intent"`
	Target string `json:"target"`
	// TraceParent is the update's propagated W3C trace context, serialized
	// in traceparent header form, so the re-executed update keeps the trace
	// ID it was submitted under (through clarify-lb, also its request ID).
	// Empty when the original submission carried no context; kept opaque
	// here so the snapshot package does not depend on the obs wire types.
	TraceParent string `json:"traceParent,omitempty"`
	// Answers is the transcript of answers delivered before capture, in
	// question order. Restore replays them through a disambig.Transcript,
	// which matches on order and kind, not question text.
	Answers []disambig.Answer `json:"answers,omitempty"`
	// Question is the question displayed at capture time, if any.
	Question *Question `json:"question,omitempty"`
}

// UpdateRecord is one finished update's poll view, preserved so GET
// /v1/sessions/{id}/updates/{uid} keeps answering for pre-handoff history.
type UpdateRecord struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	TraceID  string `json:"traceId,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Result is the marshalled server.UpdateResultInfo, kept opaque here so
	// the snapshot package does not depend on the server wire types.
	Result json.RawMessage `json:"result,omitempty"`
}

// Session is one externalized hosted session.
type Session struct {
	// Schema is the session format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// ID is the serving session ID; restore preserves it.
	ID string `json:"id"`
	// CapturedAt is when the snapshot was taken.
	CapturedAt time.Time `json:"capturedAt"`
	// Node names the daemon that captured the session (its listen address);
	// affinity metadata for the balancer and for debugging handoffs.
	Node string `json:"node,omitempty"`
	// ConfigText is the printed current configuration.
	ConfigText string `json:"configText"`
	// Fingerprint is the symbolic.SpaceCache content fingerprint of
	// ConfigText; restore recomputes it and refuses a mismatch.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Session knobs.
	MaxAttempts      int  `json:"maxAttempts,omitempty"`
	EnableReuse      bool `json:"enableReuse,omitempty"`
	SkipVerification bool `json:"skipVerification,omitempty"`
	// Stats are the session's cumulative pipeline counters.
	Stats clarify.Stats `json:"stats"`
	// IdleSeconds is how long the session had been idle at capture. The
	// restoring daemon starts a fresh idle clock regardless — a restored
	// session must never materialize already past the janitor's cutoff.
	IdleSeconds float64 `json:"idleSeconds,omitempty"`
	// NextUpdate seeds the update-ID counter so post-restore submissions
	// continue the sequence ("u4" after a restored "u3").
	NextUpdate int `json:"nextUpdate"`
	// Order is every update ID in submission order.
	Order []string `json:"order,omitempty"`
	// Updates is the finished-update history.
	Updates []UpdateRecord `json:"updates,omitempty"`
	// Pending is the in-flight update, if the session had one.
	Pending *PendingUpdate `json:"pending,omitempty"`
}

// Validate reports structural problems a restoring server must reject
// before touching its session table.
func (s *Session) Validate() error {
	if s.Schema > SchemaVersion {
		return fmt.Errorf("snapshot: session %q has schema %d, newer than supported %d", s.ID, s.Schema, SchemaVersion)
	}
	if s.ID == "" {
		return fmt.Errorf("snapshot: session has no ID")
	}
	if strings.TrimSpace(s.ConfigText) == "" {
		return fmt.Errorf("snapshot: session %q has no configuration text", s.ID)
	}
	if s.Pending != nil {
		if s.Pending.ID == "" {
			return fmt.Errorf("snapshot: session %q pending update has no ID", s.ID)
		}
		if s.Pending.Intent == "" || s.Pending.Target == "" {
			return fmt.Errorf("snapshot: session %q pending update %q has no intent/target", s.ID, s.Pending.ID)
		}
	}
	// An update ID the restored session could hand out again, one outside
	// u1..u<NextUpdate>, or one named twice in the order or in the records
	// would let the next submit replace a record in the history.
	records := make([]string, 0, len(s.Updates)+1)
	for _, u := range s.Updates {
		records = append(records, u.ID)
	}
	if s.Pending != nil {
		records = append(records, s.Pending.ID)
	}
	for _, ids := range [][]string{s.Order, records} {
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			n, err := strconv.Atoi(strings.TrimPrefix(id, "u"))
			if err != nil || id != "u"+strconv.Itoa(n) || n < 1 || n > s.NextUpdate {
				return fmt.Errorf("snapshot: session %q update ID %q is outside u1..u%d", s.ID, id, s.NextUpdate)
			}
			if seen[id] {
				return fmt.Errorf("snapshot: session %q names update %q twice", s.ID, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// File is one snapshot file: every session a draining daemon could not hand
// off live.
type File struct {
	// Schema is the file format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Time is when the file was written.
	Time time.Time `json:"time"`
	// Node names the daemon that wrote the file.
	Node string `json:"node,omitempty"`
	// Sessions are the captured sessions.
	Sessions []*Session `json:"sessions"`
}

const (
	filePrefix   = "sessions-"
	fileSuffix   = ".json"
	consumedMark = ".restored"
)

// Write atomically persists f into dir (created if missing) and returns the
// file's path. The write goes to a temp file first and is renamed into
// place, so a reader never sees a torn snapshot.
func Write(dir string, f *File) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: create dir: %w", err)
	}
	f.Schema = SchemaVersion
	for _, s := range f.Sessions {
		s.Schema = SchemaVersion
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", fmt.Errorf("snapshot: marshal: %w", err)
	}
	name := fmt.Sprintf("%s%d%s", filePrefix, f.Time.UnixNano(), fileSuffix)
	path := filepath.Join(dir, name)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("snapshot: create temp: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("snapshot: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("snapshot: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("snapshot: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("snapshot: rename: %w", err)
	}
	return path, nil
}

// Loaded is one snapshot file found by Load. Err is set when the file could
// not be decoded or carries a schema newer than this build understands; such
// files are left on disk untouched (a newer daemon may pick them up).
type Loaded struct {
	Path string
	File *File
	Err  error
}

// Load reads every unconsumed snapshot file in dir, oldest first. A missing
// directory is an empty result, not an error.
func Load(dir string) ([]Loaded, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("snapshot: read dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths) // sessions-<unixnano> sorts chronologically
	out := make([]Loaded, 0, len(paths))
	for _, p := range paths {
		l := Loaded{Path: p}
		data, err := os.ReadFile(p)
		if err != nil {
			l.Err = fmt.Errorf("snapshot: read %s: %w", p, err)
			out = append(out, l)
			continue
		}
		f := new(File)
		if err := json.Unmarshal(data, f); err != nil {
			l.Err = fmt.Errorf("snapshot: decode %s: %w", p, err)
			out = append(out, l)
			continue
		}
		if f.Schema > SchemaVersion {
			l.Err = fmt.Errorf("snapshot: %s has schema %d, newer than supported %d", p, f.Schema, SchemaVersion)
			out = append(out, l)
			continue
		}
		l.File = f
		out = append(out, l)
	}
	return out, nil
}

// Consume marks a snapshot file as restored by renaming it with a
// ".restored" suffix, so a crash between restore and consume replays the
// snapshot (restores are idempotent: an existing session ID is a conflict,
// not a duplicate) rather than losing it.
func Consume(path string) error {
	if err := os.Rename(path, path+consumedMark); err != nil {
		return fmt.Errorf("snapshot: consume: %w", err)
	}
	return nil
}
