package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRecord(i int) *Record {
	return &Record{
		Intent:      fmt.Sprintf("intent %d", i),
		Target:      "RM0",
		BaseConfig:  "route-map RM0 permit 10\n",
		FinalConfig: "route-map RM0 permit 5\nroute-map RM0 permit 10\n",
		DurationMs:  float64(i),
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || stats.Records != 5 || stats.Skipped != 0 {
		t.Fatalf("ReadAll = %d records, stats %+v; want 5 clean records", len(recs), stats)
	}
	for i, r := range recs {
		if r.Schema != SchemaVersion {
			t.Errorf("record %d schema = %d, want %d", i, r.Schema, SchemaVersion)
		}
		if want := fmt.Sprintf("intent %d", i); r.Intent != want {
			t.Errorf("record %d intent = %q, want %q (order must be oldest-first)", i, r.Intent, want)
		}
	}
}

// TestRotationConcurrentWriters hammers a small-segment journal from many
// goroutines (run under -race) and checks that rotation loses nothing: every
// append lands in exactly one segment and reads back intact.
func TestRotationConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, MaxSegmentBytes: 2 << 10, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := testRecord(i)
				rec.Session = fmt.Sprintf("writer-%d", w)
				if err := j.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if stats.Appended != writers*perWriter {
		t.Fatalf("Stats.Appended = %d, want %d", stats.Appended, writers*perWriter)
	}
	if stats.Rotations == 0 {
		t.Fatal("no rotations with 2KiB segments; rotation path untested")
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("Segments = %v, want several after rotation", segs)
	}
	recs, rstats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter || rstats.Skipped != 0 {
		t.Fatalf("read back %d records (%d skipped), want %d clean",
			len(recs), rstats.Skipped, writers*perWriter)
	}
	perSession := map[string]int{}
	for _, r := range recs {
		perSession[r.Session]++
	}
	for w := 0; w < writers; w++ {
		if got := perSession[fmt.Sprintf("writer-%d", w)]; got != perWriter {
			t.Errorf("writer-%d has %d records, want %d", w, got, perWriter)
		}
	}
}

// TestCrashTruncatedTail simulates a crash mid-append: the tail record of a
// segment is cut short. Readers must skip and count it — never fail — and a
// reopened journal must start a fresh segment so the damage stays contained.
func TestCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop the final record's line in half.
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("Segments = %v, %v; want one segment", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	truncated := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(segs[0], []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the new segment must not touch the damaged one.
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ = Segments(dir)
	if len(segs) != 2 {
		t.Fatalf("Segments after reopen = %v, want the damaged one plus a fresh one", segs)
	}

	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || stats.Skipped != 1 {
		t.Fatalf("read %d records, %d skipped; want 3 intact + 1 skipped truncated tail", len(recs), stats.Skipped)
	}
	if len(stats.SkippedAt) != 1 || !strings.Contains(stats.SkippedAt[0], filepath.Base(segs[0])) {
		t.Errorf("SkippedAt = %v, want the damaged segment's location", stats.SkippedAt)
	}
	if recs[2].Intent != "intent 99" {
		t.Errorf("last record = %q, want the post-reopen append", recs[2].Intent)
	}
}

// TestOpenRefusesUnknownFsync: a misspelt policy is an error that names the
// three policies, and creates nothing; an empty one selects interval.
func TestOpenRefusesUnknownFsync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, err := Open(Options{Dir: dir, Fsync: "alwyas"})
	if err == nil {
		j.Close()
		t.Fatal(`Open with fsync "alwyas" succeeded, want an error`)
	}
	for _, want := range []string{`"alwyas"`, "never", "interval", "always"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Errorf("refused Open left %s behind (stat: %v)", dir, serr)
	}
	j, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.opts.Fsync != FsyncInterval {
		t.Errorf("empty fsync policy = %q, want %q", j.opts.Fsync, FsyncInterval)
	}
}

// TestCloseStopsFlusher checks the interval-fsync goroutine exits on Close
// (no goroutine leak).
func TestCloseStopsFlusher(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		j, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close blocks on the flusher's done channel, so no settling loop is
	// needed; allow a little scheduler slack anyway.
	var after int
	for i := 0; i < 50; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines grew %d -> %d after Close; flusher leaked", before, after)
	}
}

func TestMaxSegmentsPrunes(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, MaxSegmentBytes: 256, MaxSegments: 3, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	if len(segs) > 3 {
		t.Fatalf("%d segments on disk, want <= 3 (MaxSegments)", len(segs))
	}
	if stats.Pruned == 0 {
		t.Error("Stats.Pruned = 0, want prunes after 40 records in 256-byte segments")
	}
}

func TestNilJournalNoOps(t *testing.T) {
	var j *Journal
	if err := j.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	j.Sync()
	if s := j.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(0)); err == nil {
		t.Fatal("Append after Close must error")
	}
	if err := j.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
}

func TestDiff(t *testing.T) {
	a := "line1\nline2\nline3\n"
	b := "line1\nline2b\nline3\n"
	d := Diff(a, b)
	for _, want := range []string{"  line1", "- line2", "+ line2b", "  line3"} {
		if !strings.Contains(d, want) {
			t.Errorf("Diff missing %q:\n%s", want, d)
		}
	}
	if Diff(a, a) != "" {
		t.Error("Diff of identical texts must be empty")
	}
}

// FuzzScanTornSegment tears a segment written through Open and Append at a
// fuzzed offset and appends fuzzed bytes, as a crash mid-append followed by
// garbage would. Scan must not fail, and must yield every record whose line
// (newline included) lies wholly before the tear, unchanged and in order;
// whatever the torn tail decodes to may follow them.
func FuzzScanTornSegment(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("Segments = %v, %v; want one segment", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// TestCrashTruncatedTail's tear: the last record's line cut in half.
	f.Add(uint(len(data)-len(lines[len(lines)-2])/2), []byte(nil))
	f.Add(uint(len(lines[0])+3), []byte("\n{\"intent\":\"x\"}\n"))
	f.Add(uint(len(data)), []byte("{\"schema\":"))

	f.Fuzz(func(t *testing.T, cut uint, tail []byte) {
		cut %= uint(len(data) + 1)
		torn := filepath.Join(t.TempDir(), filepath.Base(segs[0]))
		if err := os.WriteFile(torn, append(data[:cut:cut], tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var want []string
		end := 0
		for _, line := range lines {
			if end += len(line); line == "" || end > int(cut) {
				break
			}
			want = append(want, strings.TrimSuffix(line, "\n"))
		}
		var got []string
		if _, err := Scan(filepath.Dir(torn), func(rec *Record) error {
			line, err := json.Marshal(rec)
			got = append(got, string(line))
			return err
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
			t.Fatalf("cut %d of %d: Scan yielded %d records %q, want the %d whole ones first %q", cut, len(data), len(got), got, len(want), want)
		}
	})
}
