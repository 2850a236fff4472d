package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/clarifynet/clarify/obs"
)

// TestTraceParentAdoption checks that an update submitted with a W3C
// traceparent header joins the caller's trace: the pipeline trace reuses the
// propagated trace ID and records the caller's span as its remote parent.
func TestTraceParentAdoption(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}

	tp := obs.TraceParent{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	uctx := obs.ContextWithTraceParent(ctx, tp)
	res, err := c.RunUpdate(uctx, sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone {
		t.Fatalf("update did not finish: %+v", res)
	}
	if res.TraceID != tp.TraceID {
		t.Fatalf("update trace ID = %s, want propagated %s", res.TraceID, tp.TraceID)
	}

	resp, err := http.Get(c.BaseURL + "/debug/traces/" + tp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d", tp.TraceID, resp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ParentSpanID != tp.SpanID {
		t.Fatalf("trace remote parent = %q, want caller span %q", tr.ParentSpanID, tp.SpanID)
	}
	if tr.Root == nil || tr.Root.Name != "update" {
		t.Fatalf("trace root = %+v, want update span", tr.Root)
	}
}

// TestInvalidTraceParentIgnored checks that a malformed traceparent header
// falls back to a locally minted trace instead of failing the update.
func TestInvalidTraceParentIgnored(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	// An invalid context still serializes to a traceparent header; the
	// server must reject it on parse and mint its own trace.
	uctx := obs.ContextWithTraceParent(ctx, obs.TraceParent{TraceID: "nope", SpanID: "short"})
	res, err := c.RunUpdate(uctx, sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone {
		t.Fatalf("update did not finish: %+v", res)
	}
	if res.TraceID == "" || res.TraceID == "nope" || len(res.TraceID) != 32 {
		t.Fatalf("update trace ID = %q, want a fresh 32-hex local ID", res.TraceID)
	}
}
