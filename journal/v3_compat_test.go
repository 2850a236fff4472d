package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/clarifynet/clarify/ambiguity"
)

// TestScanAcceptsV2RecordsWithNilLedger: schema-2 journals predate the
// ambiguity ledger. Their records must scan cleanly with a nil Ambiguity
// field — readers treat "no ledger" as "not metered", never as corruption.
func TestScanAcceptsV2RecordsWithNilLedger(t *testing.T) {
	dir := t.TempDir()
	lines := `{"schema":2,"intent":"pre-ledger","target":"RM","baseConfig":"!","durationMs":1}
{"schema":3,"intent":"metered","target":"RM","baseConfig":"!","durationMs":1,"ambiguity":{"kind":"route-map","strategy":"binary","initialBits":8,"residualBits":0,"questions":[{"beforeBits":8,"afterBits":4,"gainBits":4,"preferNew":true}]}}
`
	seg := filepath.Join(dir, fmt.Sprintf(segmentPattern, 1))
	if err := os.WriteFile(seg, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	stats, err := Scan(dir, func(rec *Record) error {
		cp := *rec
		recs = append(recs, &cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if stats.Records != 2 || stats.Skipped != 0 || stats.SkippedUnknownVersion != 0 {
		t.Fatalf("stats = %+v, want both records accepted", stats)
	}
	if recs[0].Ambiguity != nil {
		t.Errorf("v2 record decoded a ledger from nowhere: %+v", recs[0].Ambiguity)
	}
	led := recs[1].Ambiguity
	if led == nil || led.Strategy != "binary" || led.InitialBits != 8 || len(led.Questions) != 1 {
		t.Fatalf("v3 ledger = %+v, want binary/8 bits/1 question", led)
	}
	if q := led.Questions[0]; q.GainBits != 4 || !q.PreferNew {
		t.Errorf("question = %+v, want gain 4, preferNew", q)
	}
}

// TestLedgerRoundTrip writes a v3 record through the journal and reads it
// back: the ledger must survive verbatim, and ledger-less records stay nil.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	led := &ambiguity.Ledger{
		Kind: "acl", Strategy: "binary", InitialBits: 6.5, ResidualBits: 1.5,
		Questions: []ambiguity.Question{{BeforeBits: 6.5, AfterBits: 1.5, GainBits: 5, PreferNew: false}},
	}
	j.Append(&Record{Session: "s", Intent: "metered", Target: "A", BaseConfig: "!", Ambiguity: led})
	j.Append(&Record{Session: "s", Intent: "unmetered", Target: "A", BaseConfig: "!"})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, stats, err := ReadAll(dir)
	if err != nil || stats.Records != 2 {
		t.Fatalf("ReadAll = %d recs %+v, %v", len(recs), stats, err)
	}
	if recs[0].Schema != SchemaVersion {
		t.Errorf("written schema = %d, want %d", recs[0].Schema, SchemaVersion)
	}
	got := recs[0].Ambiguity
	if got == nil || got.Kind != "acl" || got.InitialBits != 6.5 || got.ResidualBits != 1.5 {
		t.Fatalf("ledger after round trip = %+v, want the original", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].GainBits != 5 || got.Questions[0].PreferNew {
		t.Fatalf("questions after round trip = %+v", got.Questions)
	}
	if recs[1].Ambiguity != nil {
		t.Errorf("unmetered record grew a ledger: %+v", recs[1].Ambiguity)
	}
}

// TestAnswersWireFormat pins the schema-3 transcript encoding: a record
// with a route-map and an ACL answer, as the pipeline renders them, decodes
// and re-encodes byte for byte.
func TestAnswersWireFormat(t *testing.T) {
	const line = `{"schema":3,"time":"2026-06-01T12:00:00.5Z","session":"s1","intent":"permit 100.0.0.0/16 le 23 tagged 300:3, MED 55","target":"ISP_OUT","baseConfig":"!","answers":[{"kind":"route-map","question":"Input route:\nNetwork: 100.0.0.0/16\nAS Path: [{\"asns\":[32],\"confederation\":false}]\nCommunities: [\"300:3\"]\nLocal Preference: 100\nMetric: 0\nNext Hop IP: 0.0.0.1\nTag: 0\nWeight: 0\n\nOPTION 1 (new stanza applies):\nACTION: permit\nNetwork: 100.0.0.0/16\nAS Path: [{\"asns\":[32],\"confederation\":false}]\nCommunities: [\"300:3\"]\nLocal Preference: 100\nMetric: 55\nNext Hop IP: 0.0.0.1\nTag: 0\nWeight: 0\n\nOPTION 2 (existing behavior):\nACTION: deny\n","preferNew":true},{"kind":"acl","question":"Input packet: tcp 10.1.2.3:1024 -\u003e 192.0.2.10:22\n\nOPTION 1 (new entry applies): deny\nOPTION 2 (existing behavior): permit","preferNew":false}],"attempts":1,"durationMs":1.5}`
	var rec Record
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rec.Answers) != 2 || rec.Answers[0].Kind != "route-map" || !rec.Answers[0].PreferNew ||
		rec.Answers[1].Kind != "acl" || rec.Answers[1].PreferNew {
		t.Fatalf("answers = %+v, want route-map OPTION 1 then acl OPTION 2", rec.Answers)
	}
	got, err := json.Marshal(&rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if string(got) != line {
		t.Fatalf("re-encoded record differs:\n%s\nwant\n%s", got, line)
	}
}
