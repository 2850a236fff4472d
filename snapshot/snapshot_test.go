package snapshot

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	return &File{
		Time: time.Unix(1700000000, 42).UTC(),
		Node: "127.0.0.1:8080",
		Sessions: []*Session{{
			ID:          "s1-abcd",
			CapturedAt:  time.Unix(1700000000, 0).UTC(),
			Node:        "127.0.0.1:8080",
			ConfigText:  "route-map RM permit 10\n match ip address prefix-list PL\n!",
			Fingerprint: "deadbeef",
			Stats:       clarify.Stats{LLMCalls: 3, Updates: 1},
			NextUpdate:  2,
			Order:       []string{"u1", "u2"},
			Updates: []UpdateRecord{{
				ID: "u1", Status: "done",
				Result: json.RawMessage(`{"kind":"route-map","attempts":1}`),
			}},
			Pending: &PendingUpdate{
				ID: "u2", Intent: "permit 10.0.0.0/8", Target: "RM",
				Answers:  []disambig.Answer{{Kind: "route-map", PreferNew: true}},
				Question: &Question{Seq: 2, Kind: "route-map", Text: "OPTION 1 ..."},
			},
		}},
	}
}

func TestWriteLoadConsumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleFile(t)
	path, err := Write(dir, want)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded) != 1 || loaded[0].Err != nil {
		t.Fatalf("Load = %+v, want one clean file", loaded)
	}
	if loaded[0].Path != path {
		t.Fatalf("path = %q, want %q", loaded[0].Path, path)
	}
	got := loaded[0].File
	if got.Schema != SchemaVersion {
		t.Fatalf("file schema = %d, want %d", got.Schema, SchemaVersion)
	}
	if len(got.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(got.Sessions))
	}
	s := got.Sessions[0]
	if s.Schema != SchemaVersion {
		t.Fatalf("session schema = %d, want %d", s.Schema, SchemaVersion)
	}
	if s.ID != "s1-abcd" || s.NextUpdate != 2 || len(s.Order) != 2 {
		t.Fatalf("session round trip mangled: %+v", s)
	}
	if s.Pending == nil || s.Pending.ID != "u2" || len(s.Pending.Answers) != 1 || !s.Pending.Answers[0].PreferNew {
		t.Fatalf("pending round trip mangled: %+v", s.Pending)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	if err := Consume(path); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	loaded, err = Load(dir)
	if err != nil {
		t.Fatalf("Load after consume: %v", err)
	}
	if len(loaded) != 0 {
		t.Fatalf("consumed file still loaded: %+v", loaded)
	}
	if _, err := os.Stat(path + consumedMark); err != nil {
		t.Fatalf("consumed file not preserved: %v", err)
	}
}

func TestLoadOrdersOldestFirstAndSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	newer := sampleFile(t)
	newer.Time = time.Unix(1700000100, 0)
	if _, err := Write(dir, newer); err != nil {
		t.Fatalf("Write newer: %v", err)
	}
	older := sampleFile(t)
	older.Time = time.Unix(1700000000, 0)
	if _, err := Write(dir, older); err != nil {
		t.Fatalf("Write older: %v", err)
	}
	garbage := filepath.Join(dir, filePrefix+"1699999999"+fileSuffix)
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d files, want 3", len(loaded))
	}
	if loaded[0].Err == nil {
		t.Fatal("garbage file loaded without error")
	}
	if loaded[1].File == nil || loaded[2].File == nil {
		t.Fatalf("clean files not decoded: %+v", loaded)
	}
	if !loaded[1].File.Time.Before(loaded[2].File.Time) {
		t.Fatalf("files out of order: %v then %v", loaded[1].File.Time, loaded[2].File.Time)
	}
}

func TestLoadSkipsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	future := `{"schema":99,"time":"2026-01-01T00:00:00Z","sessions":[]}`
	path := filepath.Join(dir, filePrefix+"42"+fileSuffix)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded) != 1 || loaded[0].Err == nil {
		t.Fatalf("newer-schema file should surface an error: %+v", loaded)
	}
	if !strings.Contains(loaded[0].Err.Error(), "schema 99") {
		t.Fatalf("error should name the schema: %v", loaded[0].Err)
	}
	// The file must stay on disk for a newer daemon.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("newer-schema file was touched: %v", err)
	}
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	loaded, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(loaded) != 0 {
		t.Fatalf("Load(missing) = %v, %v; want empty, nil", loaded, err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Session)
		want string
	}{
		{"newer schema", func(s *Session) { s.Schema = SchemaVersion + 1 }, "newer than supported"},
		{"no id", func(s *Session) { s.ID = "" }, "no ID"},
		{"no config", func(s *Session) { s.ConfigText = "  \n" }, "no configuration"},
		{"pending no id", func(s *Session) { s.Pending = &PendingUpdate{Intent: "i", Target: "t"} }, "no ID"},
		{"pending no intent", func(s *Session) { s.Pending = &PendingUpdate{ID: "u2"} }, "no intent"},
	}
	for _, tc := range cases {
		s := sampleFile(t).Sessions[0]
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := sampleFile(t).Sessions[0].Validate(); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
}

// TestPendingUpdateWireFormat pins the pending update's encoding, delivered
// answers included: a pending update whose answer carries the rendered
// question, as the pipeline always produces one, decodes and re-encodes byte
// for byte.
func TestPendingUpdateWireFormat(t *testing.T) {
	const text = `Input packet: tcp 10.1.2.3:1024 -\u003e 192.0.2.10:22\n\nOPTION 1 (new entry applies): deny\nOPTION 2 (existing behavior): permit`
	const body = `{"id":"u2","intent":"deny ssh to 192.0.2.10","target":"EDGE_IN","traceParent":"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",` +
		`"answers":[{"kind":"acl","question":"` + text + `","preferNew":true}],"question":{"seq":2,"kind":"acl","text":"` + text + `"}}`
	var p PendingUpdate
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(p.Answers) != 1 || p.Answers[0].Kind != "acl" || !p.Answers[0].PreferNew || p.Answers[0].Question == "" {
		t.Fatalf("answers = %+v, want one acl OPTION 1 answer with its question", p.Answers)
	}
	got, err := json.Marshal(&p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if string(got) != body {
		t.Fatalf("re-encoded pending update differs:\n%s\nwant\n%s", got, body)
	}
}
