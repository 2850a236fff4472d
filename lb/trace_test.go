package lb

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/server"
)

// syncBuffer makes a bytes.Buffer safe for the access-log handler, which
// writes from request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// hit returns the first recorded hit matching method and path suffix.
func (rt *recordingTransport) hit(method, pathSuffix string) recordedHit {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, h := range rt.hits {
		if h.method == method && strings.HasSuffix(h.path, pathSuffix) {
			return h
		}
	}
	return recordedHit{}
}

// replicaTrace fetches trace tid from the replica named backend (host:port),
// failing the test unless it answers 200.
func replicaTrace(t *testing.T, backend, tid string) *obs.Trace {
	t.Helper()
	tr := new(obs.Trace)
	getJSON(t, "http://"+backend+"/debug/traces/"+tid, tr)
	return tr
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestMintedRequestIDIsReplicaTraceID runs the §2.1 walkthrough through the
// balancer with no client trace context. The balancer mints one, and its
// trace ID is both the X-Request-Id the client sees and the update's
// traceId; it resolves at GET /debug/traces/{id} on the replica named by
// X-Clarify-Backend.
func TestMintedRequestIDIsReplicaTraceID(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(server.Question) (int, error) { return 1, nil })
	if err != nil || res.Status != server.StatusDone || res.Result.Questions != 2 {
		t.Fatalf("walkthrough = %+v, %v; want done with 2 questions", res, err)
	}

	submit := rt.hit(http.MethodPost, "/updates")
	if len(submit.requestID) != 32 {
		t.Fatalf("minted X-Request-Id = %q, want a 32-hex trace ID", submit.requestID)
	}
	if res.TraceID != submit.requestID {
		t.Fatalf("update trace ID %s != proxied request ID %s", res.TraceID, submit.requestID)
	}
	if _, ok := f.backends[submit.backend]; !ok {
		t.Fatalf("X-Clarify-Backend = %q, want one of the replicas", submit.backend)
	}
	tr := replicaTrace(t, submit.backend, res.TraceID)
	if tr.ID != res.TraceID || tr.Root == nil || tr.Root.Name != "update" {
		t.Fatalf("replica trace = %+v, want the update tree under %s", tr, res.TraceID)
	}
	if tr.Find("disambiguate") == nil {
		t.Errorf("replica trace has no disambiguate span")
	}
	// The minted context's span ID is the replica's remote parent.
	if len(tr.ParentSpanID) != 16 {
		t.Errorf("replica trace parent = %q, want the minted 16-hex span ID", tr.ParentSpanID)
	}
}

// TestAccessLogOneLinePerRequest checks -access-log: every proxied request
// writes one line carrying the request ID and trace ID, the backend, the
// placement kind and the status the client saw.
func TestAccessLogOneLinePerRequest(t *testing.T) {
	logBuf := &syncBuffer{}
	opts := fastProbeOpts()
	opts.AccessLog = slog.New(slog.NewJSONHandler(logBuf, nil))
	f := startLBFleet(t, 2, opts)
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	if res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(server.Question) (int, error) { return 1, nil }); err != nil || res.Status != server.StatusDone {
		t.Fatalf("run update = %+v, %v", res, err)
	}

	rt.mu.Lock()
	hits := append([]recordedHit(nil), rt.hits...)
	rt.mu.Unlock()
	// A handler logs after its response is written, so the last line may
	// trail the client's return.
	waitFor(t, 5*time.Second, "one access-log line per request", func() bool {
		return strings.Count(logBuf.String(), "\n") >= len(hits)
	})
	type line struct {
		Path, RequestID, TraceID, Backend, Placement string
		Status                                       int
	}
	byID := map[string]line{}
	raw := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	for _, r := range raw {
		var l line
		if err := json.Unmarshal([]byte(r), &l); err != nil {
			t.Fatalf("access-log line %q: %v", r, err)
		}
		byID[l.RequestID] = l
	}
	if len(raw) != len(hits) || len(byID) != len(hits) {
		t.Fatalf("%d access-log lines (%d request IDs) for %d proxied requests:\n%s",
			len(raw), len(byID), len(hits), logBuf.String())
	}
	for _, h := range hits {
		l, ok := byID[h.requestID]
		if !ok {
			t.Errorf("%s %s: no access-log line with requestId %q", h.method, h.path, h.requestID)
			continue
		}
		if l.Path != h.path || l.TraceID != h.requestID || l.Backend != h.backend || l.Status != h.status {
			t.Errorf("%s %s: logged %+v, want path, traceId, backend and status %q %q %q %d",
				h.method, h.path, l, h.path, h.requestID, h.backend, h.status)
		}
		switch l.Placement {
		case "pin", "lookup", "p2c", "failover":
		default:
			t.Errorf("%s %s: placement %q, want a placement kind", h.method, h.path, l.Placement)
		}
	}
}

// TestRestoreCarriesTraceID checks trace continuity across a live handoff: a
// session parked mid-disambiguation is snapshotted on its draining owner and
// restored through the balancer, and the re-executed update keeps the
// original trace ID.
func TestRestoreCarriesTraceID(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	pin := f.lb.affinity.Get(sid)
	if pin == nil {
		t.Fatal("no affinity pin after create")
	}
	owner := f.backends[pin.Name]

	up, err := c.SubmitAsync(ctx, sid, exampleIntent, "ISP_OUT")
	if err != nil {
		t.Fatalf("submit async: %v", err)
	}
	origTID := rt.hit(http.MethodPost, "/updates").requestID
	if len(origTID) != 32 {
		t.Fatalf("submit request ID = %q, want a trace ID", origTID)
	}
	waitFor(t, 5*time.Second, "parked question", func() bool {
		q, err := pendingQuestion(ctx, c, sid)
		return err == nil && q != nil
	})

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := owner.DrainForHandoff(dctx); err != nil {
		t.Fatalf("DrainForHandoff: %v", err)
	}
	snaps := owner.SnapshotSessions(pin.Name)
	if len(snaps) != 1 || snaps[0].Pending == nil {
		t.Fatalf("snapshot = %+v, want one parked session", snaps)
	}
	// The snapshot serialized the propagated trace context, so the
	// restored replica re-executes under the same trace ID.
	if !strings.Contains(snaps[0].Pending.TraceParent, origTID) {
		t.Fatalf("snapshot traceparent %q does not carry trace %s",
			snaps[0].Pending.TraceParent, origTID)
	}
	waitFor(t, 5*time.Second, "probe to observe draining", func() bool {
		return f.snapshotOf(t, pin.Name).Draining
	})
	if _, err := c.RestoreSession(ctx, snaps[0]); err != nil {
		t.Fatalf("restore through the balancer: %v", err)
	}

	res, err := c.PollUpdate(ctx, sid, up.ID, func(server.Question) (int, error) { return 1, nil })
	if err != nil || res.Status != server.StatusDone {
		t.Fatalf("restored update = %+v, %v, want done", res, err)
	}
	if res.TraceID != origTID {
		t.Fatalf("restored update trace ID = %s, want original %s", res.TraceID, origTID)
	}

	// Unpark the owner's copy so its shutdown in cleanup is prompt.
	oc := &server.Client{BaseURL: "http://" + pin.Name, PollInterval: 2 * time.Millisecond}
	if _, err := oc.PollUpdate(ctx, sid, up.ID, func(server.Question) (int, error) { return 1, nil }); err != nil {
		t.Fatalf("finish owner's parked update: %v", err)
	}
}

// TestClientTraceParentContinuation checks that a client-minted W3C trace
// context (what clarify -remote sends) passes the balancer untouched: the
// replica's trace for the update has the client's trace ID and records the
// client's span as its remote parent, and the balancer quotes that trace ID
// as the request ID.
func TestClientTraceParentContinuation(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	tp := obs.TraceParent{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	uctx := obs.ContextWithTraceParent(ctx, tp)
	res, err := c.RunUpdate(uctx, sid, exampleIntent, "ISP_OUT",
		func(server.Question) (int, error) { return 1, nil })
	if err != nil || res.Status != server.StatusDone {
		t.Fatalf("run update = %+v, %v", res, err)
	}
	if res.TraceID != tp.TraceID {
		t.Fatalf("update trace ID = %s, want client-minted %s", res.TraceID, tp.TraceID)
	}
	submit := rt.hit(http.MethodPost, "/updates")
	if submit.requestID != tp.TraceID {
		t.Errorf("X-Request-Id = %q, want the client's trace ID %s", submit.requestID, tp.TraceID)
	}
	tr := replicaTrace(t, submit.backend, tp.TraceID)
	if tr.ParentSpanID != tp.SpanID {
		t.Errorf("replica trace remote parent = %q, want client span %q", tr.ParentSpanID, tp.SpanID)
	}
	if tr.Root == nil || tr.Root.Name != "update" {
		t.Errorf("replica trace root = %+v, want the update span", tr.Root)
	}
}

// TestTracingDisabled checks that the balancer records nothing per request:
// requests flow with minted request IDs, and the balancer serves no trace or
// ambiguity view of its own and no OpenMetrics exposition. Its /metrics
// carries no ambiguity block, so a load run through it reports none.
func TestTracingDisabled(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	rt := &recordingTransport{}
	c := f.client(rt)
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT",
		func(server.Question) (int, error) { return 1, nil })
	if err != nil || res.Status != server.StatusDone {
		t.Fatalf("update through the balancer = %+v, %v", res, err)
	}

	for _, path := range []string{"/debug/traces", "/debug/traces/" + res.TraceID, "/debug/ambiguity"} {
		resp, err := http.Get(f.lbSrv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if m, err := c.Metrics(ctx); err != nil || m.Ambiguity != nil {
		t.Errorf("/metrics through the balancer = ambiguity %+v, %v; want no ambiguity block", m.Ambiguity, err)
	}
	// Any /metrics format but prometheus falls back to the JSON snapshot.
	var snap MetricsSnapshot
	getJSON(t, f.lbSrv.URL+"/metrics?format=openmetrics", &snap)
	if len(snap.Backends) != 2 || snap.Proxied == 0 {
		t.Errorf("?format=openmetrics = %+v, want the JSON snapshot", snap)
	}
}
