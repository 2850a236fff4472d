package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tp := TraceParent{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	if !tp.Valid() || !tp.Sampled() {
		t.Fatalf("fresh traceparent invalid: %+v", tp)
	}
	s := tp.String()
	if !strings.HasPrefix(s, "00-") || len(s) != 55 {
		t.Fatalf("wire form = %q", s)
	}
	back, ok := ParseTraceParent(s)
	if !ok || back != tp {
		t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", s, back, ok, tp)
	}
}

// rejectedTraceParents are header values ParseTraceParent must refuse.
var rejectedTraceParents = []string{
	"",
	"00-abc-def-01", // too short
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 with trailing data
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // reserved version
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // all-zero trace ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // all-zero span ID
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad delimiter
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",       // bad flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",      // junk tail
	"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // non-hex version
}

// futureTraceParent is a future version with trailing fields; only its
// known prefix is parsed.
const futureTraceParent = "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-09-future"

func TestParseTraceParentRejects(t *testing.T) {
	for _, bad := range rejectedTraceParents {
		if _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want reject", bad)
		}
	}
	tp, ok := ParseTraceParent(futureTraceParent)
	if !ok || tp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tp.SpanID != "00f067aa0ba902b7" || tp.Flags != 0x09 {
		t.Fatalf("future version parse: %+v ok=%v", tp, ok)
	}
}

// FuzzParseTraceParent feeds arbitrary header values to ParseTraceParent. It
// must not panic, and an accepted value must be valid, render as its
// version-00 form and parse back to itself.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add(futureTraceParent)
	for _, s := range rejectedTraceParents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if !tp.Valid() {
			t.Fatalf("ParseTraceParent(%q) = %+v, not valid", s, tp)
		}
		if got, want := tp.String(), "00"+s[2:55]; got != want {
			t.Fatalf("ParseTraceParent(%q).String() = %q, want %q", s, got, want)
		}
		if back, ok := ParseTraceParent(tp.String()); !ok || back != tp {
			t.Fatalf("reparse of %q = %+v ok=%v, want %+v", tp.String(), back, ok, tp)
		}
	})
}

func TestNewTraceWithAdoptsContext(t *testing.T) {
	tp := TraceParent{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	tr := NewTraceWith("update", tp)
	if tr.ID != tp.TraceID || tr.ParentSpanID != tp.SpanID {
		t.Fatalf("trace did not adopt context: id=%q parent=%q", tr.ID, tr.ParentSpanID)
	}
	if tr.Root.SpanID == "" || tr.Root.SpanID == tp.SpanID {
		t.Fatalf("root span must get a fresh local span ID, got %q", tr.Root.SpanID)
	}
	// Invalid context falls back to a locally rooted trace.
	tr2 := NewTraceWith("update", TraceParent{})
	if tr2.ParentSpanID != "" || !isHexID(tr2.ID, 32) {
		t.Fatalf("invalid context must root locally: %+v", tr2)
	}
}

// TestNewTraceWithMintsNoID checks that continuing a valid context costs
// fewer allocations than minting: the adopted trace ID is used as is, with
// no random ID minted and thrown away.
func TestNewTraceWithMintsNoID(t *testing.T) {
	tp := TraceParent{TraceID: NewTraceID(), SpanID: NewSpanID()}
	minted := testing.AllocsPerRun(100, func() { NewTrace("update") })
	adopted := testing.AllocsPerRun(100, func() { NewTraceWith("update", tp) })
	if adopted >= minted {
		t.Fatalf("NewTraceWith(valid) allocs = %v, want fewer than NewTrace's %v", adopted, minted)
	}
}

func TestContextTraceParent(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceParentFromContext(ctx); ok {
		t.Fatal("empty context carries no traceparent")
	}
	if ContextWithTraceParent(ctx, TraceParent{}) != ctx {
		t.Fatal("invalid traceparent must not wrap the context")
	}
	tp := TraceParent{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	got, ok := TraceParentFromContext(ContextWithTraceParent(ctx, tp))
	if !ok || got != tp {
		t.Fatalf("context round trip: %+v ok=%v", got, ok)
	}
}
