package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
)

// TestDebugTracesLimit checks GET /debug/traces?limit=N returns the N most
// recent traces newest-first, and rejects malformed limits.
func TestDebugTracesLimit(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	sid, err := c.CreateSession(context.Background(), CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, runWalkthrough(t, c, sid).TraceID)
	}

	fetch := func(q string) ([]TraceSummary, int) {
		t.Helper()
		resp, err := http.Get(c.BaseURL + "/debug/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode
		}
		var list []TraceSummary
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list, resp.StatusCode
	}

	list, _ := fetch("?limit=2")
	if len(list) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list))
	}
	if list[0].ID != ids[2] || list[1].ID != ids[1] {
		t.Errorf("limit=2 order = [%s %s], want newest-first [%s %s]",
			list[0].ID, list[1].ID, ids[2], ids[1])
	}
	if list, _ := fetch("?limit=0"); len(list) != 0 {
		t.Errorf("limit=0 returned %d traces, want none", len(list))
	}
	if list, _ := fetch("?limit=99"); len(list) != 3 {
		t.Errorf("limit beyond total returned %d traces, want all 3", len(list))
	}
	if list, _ := fetch(""); len(list) != 3 {
		t.Errorf("no limit returned %d traces, want all 3", len(list))
	}
	for _, bad := range []string{"?limit=-1", "?limit=x", "?limit=1.5"} {
		if _, status := fetch(bad); status != http.StatusBadRequest {
			t.Errorf("GET /debug/traces%s = %d, want 400", bad, status)
		}
	}
}

// TestEstimateQuantile pins the interpolation math on hand-computed cases.
func TestEstimateQuantile(t *testing.T) {
	buckets := []float64{10, 20, 40}
	// 10 samples in (0,10], 10 in (10,20], none higher.
	counts := []int64{10, 10, 0, 0}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 10}, // rank 10 lands exactly on the first bucket's upper bound
		{0.25, 5},  // rank 2.5 interpolates to the middle of (0,10]
		{0.75, 15}, // rank 15 interpolates halfway through (10,20]
		{0.95, 19}, // rank 19 → 90% through the second bucket
	}
	for _, tc := range cases {
		got := estimateQuantile(buckets, counts, 20, tc.q)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("estimateQuantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// +Inf samples clamp to the highest finite bound.
	if got := estimateQuantile(buckets, []int64{0, 0, 0, 5}, 5, 0.99); got != 40 {
		t.Errorf("+Inf clamp = %v, want 40", got)
	}
	// Empty histogram estimates zero.
	if got := estimateQuantile(buckets, []int64{0, 0, 0, 0}, 0, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

// TestFailedUpdatesCounter: a clean update leaves FailedUpdates at zero and
// an update whose LLM fails counts once, in the JSON and the Prometheus
// views; GET /debug/slo answers 404 and no clarifyd_slo_* series is
// exported.
func TestFailedUpdatesCounter(t *testing.T) {
	client := &switchableClient{sim: llm.NewSimLLM()}
	_, c := startServer(t, Options{Workers: 2, LLM: client})
	ctx := context.Background()
	newSession := func() string {
		sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatal(err)
		}
		return sid
	}
	checkFailed := func(want int64) {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.FailedUpdates != want {
			t.Errorf("FailedUpdates = %d, want %d", m.FailedUpdates, want)
		}
	}
	runWalkthrough(t, c, newSession())
	checkFailed(0)
	client.failing.Store(true)
	if res, err := c.RunUpdate(ctx, newSession(), exampleIntent, "ISP_OUT", func(Question) (int, error) { return 1, nil }); err != nil || res.Status != StatusFailed {
		t.Fatalf("update on a failing LLM = %+v, %v; want failed", res, err)
	}
	checkFailed(1)

	resp, err := http.Get(c.BaseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	if !strings.Contains(prom, "\nclarifyd_failed_updates_total 1\n") || strings.Contains(prom, "clarifyd_slo_") {
		t.Errorf("exposition lacks clarifyd_failed_updates_total 1 or carries clarifyd_slo_* series:\n%s", prom)
	}
	resp, err = http.Get(c.BaseURL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/slo = %d, want 404", resp.StatusCode)
	}
}

// switchableClient serves from sim until failing is set, then fails every
// completion.
type switchableClient struct {
	sim     llm.Client
	failing atomic.Bool
}

func (c *switchableClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if c.failing.Load() {
		return failingClient{}.Complete(ctx, req)
	}
	return c.sim.Complete(ctx, req)
}

// TestServerJournal runs a journaling server and checks each update lands in
// the journal tagged with its session, and that /metrics reports the
// journal's counters.
func TestServerJournal(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()

	_, c := startServer(t, Options{Workers: 2, Journal: jnl})
	sid, err := c.CreateSession(context.Background(), CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	res := runWalkthrough(t, c, sid)

	recs, stats, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || stats.Skipped != 0 {
		t.Fatalf("journal holds %d records (%d skipped), want 1", len(recs), stats.Skipped)
	}
	rec := recs[0]
	if rec.Session != sid {
		t.Errorf("record session = %q, want the serving session %q", rec.Session, sid)
	}
	if rec.TraceID != res.TraceID {
		t.Errorf("record trace = %q, want the update's trace %q", rec.TraceID, res.TraceID)
	}
	if rec.Intent != exampleIntent || rec.Target != "ISP_OUT" {
		t.Errorf("record inputs = %q/%q", rec.Intent, rec.Target)
	}
	if rec.FinalConfig == "" || rec.Trace == nil || len(rec.Answers) != 2 {
		t.Errorf("record not self-contained: final=%d bytes, trace=%v, answers=%d",
			len(rec.FinalConfig), rec.Trace != nil, len(rec.Answers))
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Journal == nil || m.Journal.Appended != 1 {
		t.Fatalf("metrics journal block = %+v, want appended=1", m.Journal)
	}
}
