package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilSafety exercises every method on nil receivers: the disabled-tracing
// fast path must never panic and must propagate nil through child chains.
func TestNilSafety(t *testing.T) {
	var sp *Span
	c := sp.Child("x")
	if c != nil {
		t.Fatal("nil span's Child must be nil")
	}
	if cn := sp.ChildN("attempt", 3); cn != nil {
		t.Fatal("nil span's ChildN must be nil")
	}
	// Chains through nil collapse entirely.
	sp.Child("a").Child("b").End()
	sp.End()
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetDur("k", time.Second)
	sp.SetBool("k", true)
	sp.Logf("ignored %d", 42)
	if _, ok := sp.Attr("k"); ok {
		t.Fatal("nil span has no attributes")
	}

	var tr *Trace
	tr.Finish()
	if tr.Duration() != 0 {
		t.Fatal("nil trace has no duration")
	}
	tr.Walk(func(*Span, int) { t.Fatal("nil trace walks no spans") })
	if tr.Find("x") != nil {
		t.Fatal("nil trace finds nothing")
	}
	if tr.SpanCount() != 0 {
		t.Fatal("nil trace has no spans")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTrace("update")
	if !isHexID(tr.ID, 32) {
		t.Fatalf("want 32-hex W3C trace ID, got %q", tr.ID)
	}
	if !isHexID(tr.Root.SpanID, 16) {
		t.Fatalf("want 16-hex root span ID, got %q", tr.Root.SpanID)
	}
	a := tr.Root.ChildN("synthesize-attempt", 1)
	if a.Name != "synthesize-attempt-1" {
		t.Fatalf("ChildN name = %q", a.Name)
	}
	v := a.Child("verify")
	v.SetInt("violations", 2)
	v.End()
	a.End()
	tr.Finish()

	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	if tr.Find("verify") != v {
		t.Fatal("Find did not locate the verify span")
	}
	attr, ok := v.Attr("violations")
	if !ok || attr.Kind != AttrInt || attr.Int != 2 {
		t.Fatalf("violations attr = %+v, ok=%v", attr, ok)
	}
	if v.Duration <= 0 || a.Duration <= 0 || tr.Duration() <= 0 {
		t.Fatal("ended spans must have positive durations")
	}
	// End is idempotent.
	d := v.Duration
	v.End()
	if v.Duration != d {
		t.Fatal("second End must not change the duration")
	}
	// Depth-first walk order, parents first.
	var names []string
	tr.Walk(func(sp *Span, depth int) { names = append(names, sp.Name) })
	want := []string{"update", "synthesize-attempt-1", "verify"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", names, want)
		}
	}
}

// TestJSONRoundTrip checks that a marshalled trace restores with the same
// shape, durations (to millisecond precision) and typed attributes.
func TestJSONRoundTrip(t *testing.T) {
	tr := NewTrace("update")
	sp := tr.Root.Child("classify")
	sp.SetStr("kind", "route-map")
	sp.SetInt("n", 7)
	sp.SetDur("llm-ms", 1500*time.Microsecond)
	sp.SetBool("ok", true)
	sp.Logf("classified intent as %s", "route-map")
	sp.End()
	tr.Finish()

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "LineWriter") {
		t.Fatal("adapter fields must not leak into the wire form")
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tr.ID || back.SpanCount() != 2 {
		t.Fatalf("round trip lost shape: %+v", back)
	}
	c := back.Find("classify")
	if c == nil {
		t.Fatal("round trip lost the classify span")
	}
	for _, tc := range []struct {
		key  string
		kind AttrKind
	}{{"kind", AttrString}, {"n", AttrInt}, {"llm-ms", AttrDuration}, {"ok", AttrBool}} {
		a, ok := c.Attr(tc.key)
		if !ok || a.Kind != tc.kind {
			t.Errorf("attr %q: got %+v ok=%v, want kind %d", tc.key, a, ok, tc.kind)
		}
	}
	if a, _ := c.Attr("llm-ms"); a.Dur != 1500*time.Microsecond {
		t.Errorf("duration attr = %v, want 1.5ms", a.Dur)
	}
	if len(c.Events) != 1 || c.Events[0] != "classified intent as route-map" {
		t.Errorf("events = %v", c.Events)
	}
}

// TestLineWriterAdapter checks the legacy io.Writer format: each Logf line
// streams immediately as "<prefix><line>\n", in order, from any span depth.
func TestLineWriterAdapter(t *testing.T) {
	var buf strings.Builder
	tr := NewTrace("update")
	tr.LineWriter = &buf
	tr.LinePrefix = "clarify: "
	tr.Root.Logf("classified intent as %s", "route-map")
	child := tr.Root.Child("synthesize-attempt-1")
	child.Logf("attempt %d rejected", 1)
	want := "clarify: classified intent as route-map\nclarify: attempt 1 rejected\n"
	if buf.String() != want {
		t.Fatalf("adapter output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestCanonicalStage(t *testing.T) {
	for in, want := range map[string]string{
		"synthesize-attempt-1":  "synthesize-attempt",
		"synthesize-attempt-12": "synthesize-attempt",
		"classify":              "classify",
		"question-wait":         "question-wait",
		"update":                "update",
		"v2":                    "v2",
	} {
		if got := CanonicalStage(in); got != want {
			t.Errorf("CanonicalStage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestContextSpan(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carries no span")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span must not wrap the context")
	}
	tr := NewTrace("update")
	sp := tr.Root.Child("classify")
	if got := SpanFromContext(ContextWithSpan(ctx, sp)); got != sp {
		t.Fatalf("SpanFromContext = %v, want %v", got, sp)
	}
}

func TestSinks(t *testing.T) {
	var buf strings.Builder
	jw := NewJSONWriter(&buf)
	var calls int
	fn := SinkFunc(func(*Trace) { calls++ })

	t1 := NewTrace("update")
	t1.Finish()
	t2 := NewTrace("update")
	t2.Finish()
	for _, sink := range []Sink{jw, fn} {
		sink.TraceDone(t1)
		sink.TraceDone(t2)
	}

	if calls != 2 {
		t.Fatalf("func sink called %d times, want 2", calls)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL sink wrote %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var tr Trace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}
