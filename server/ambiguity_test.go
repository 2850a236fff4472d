package server

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// TestDebugAmbiguityEndpoint runs the §2.1 walkthrough over HTTP and checks
// the daemon's live rollup: /debug/ambiguity must agree with what the update
// reported (two questions, binary strategy, route-map kind, zero residual).
func TestDebugAmbiguityEndpoint(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q Question) (int, error) {
		return 1, nil
	})
	if err != nil || res.Status != StatusDone {
		t.Fatalf("run update: %v %+v", err, res)
	}
	if res.Result.Questions != 2 {
		t.Fatalf("walkthrough asked %d questions, want 2", res.Result.Questions)
	}

	snap, err := c.Ambiguity(ctx)
	if err != nil {
		t.Fatalf("GET /debug/ambiguity: %v", err)
	}
	total := snap.Rollup.Total
	if total.Updates != 1 || total.Questions != 2 {
		t.Fatalf("rollup total = %+v, want 1 update, 2 questions", total)
	}
	if total.InitialBits <= 0 || total.ResolvedBits != total.InitialBits || total.ResidualBits != 0 {
		t.Errorf("rollup bits = %+v, want fully resolved positive initial", total)
	}
	if snap.Rollup.UpdatesWithQuestions != 1 {
		t.Errorf("UpdatesWithQuestions = %d, want 1", snap.Rollup.UpdatesWithQuestions)
	}
	if st := snap.Rollup.Strategies["binary"]; st == nil || st.Updates != 1 || st.Questions != 2 {
		t.Errorf("binary strategy row = %+v, want 1 update / 2 questions", st)
	}
	if k := snap.Rollup.Kinds["route-map"]; k == nil || k.Updates != 1 {
		t.Errorf("route-map kind row = %+v, want 1 update", k)
	}
	// The update ran without a tenant header, so the ledger lands under the
	// default tenant.
	if tr := snap.Tenants["default"]; tr == nil || tr.Total.Updates != 1 {
		t.Errorf("default-tenant rollup = %+v, want 1 update", snap.Tenants)
	}
	// Histograms: one update with 2 questions.
	if snap.QuestionsPerUpdate.Count != 1 || snap.QuestionsPerUpdate.Sum != 2 {
		t.Errorf("questionsPerUpdate = %+v, want count 1 sum 2", snap.QuestionsPerUpdate)
	}
	if snap.BitsResolvedPerQuestion.Count != 2 {
		t.Errorf("bitsResolvedPerQuestion count = %d, want 2", snap.BitsResolvedPerQuestion.Count)
	}
	if snap.ResidualAmbiguityBits.Count != 1 || snap.ResidualAmbiguityBits.Sum != 0 {
		t.Errorf("residualAmbiguityBits = %+v, want count 1 sum 0", snap.ResidualAmbiguityBits)
	}

	// ?tenant= filters; an unknown tenant is a 404, not an empty rollup.
	resp, err := http.Get(c.BaseURL + "/debug/ambiguity?tenant=ghost")
	if err != nil {
		t.Fatalf("tenant filter: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d, want 404", resp.StatusCode)
	}

	// The same rollup rides /metrics (JSON and Prometheus).
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Ambiguity == nil || m.Ambiguity.Rollup.Total.Updates != 1 {
		t.Errorf("/metrics ambiguity block = %+v, want the same 1-update rollup", m.Ambiguity)
	}
	promResp, err := http.Get(c.BaseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("prometheus metrics: %v", err)
	}
	body, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		t.Fatalf("read prometheus body: %v", err)
	}
	text := string(body)
	for _, series := range []string{
		"clarifyd_ambiguity_updates_metered_total 1",
		`clarifyd_ambiguity_strategy_questions_total{strategy="binary"} 2`,
		`clarifyd_ambiguity_kind_updates_total{kind="route-map"} 1`,
		"clarifyd_ambiguity_bits_resolved_per_question_count 2",
		"clarifyd_ambiguity_questions_per_update_sum 2",
		"clarifyd_ambiguity_residual_bits_count 1",
		"clarifyd_goroutines ",
		"clarifyd_heap_inuse_bytes ",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("prometheus exposition missing %q", series)
		}
	}
}

// TestRuntimeStatsBlock: /metrics carries the process runtime block
// (goroutines, GC pause p99, heap in use) sampled via runtime/metrics.
func TestRuntimeStatsBlock(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Runtime == nil {
		t.Fatal("/metrics has no runtime block")
	}
	if m.Runtime.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", m.Runtime.Goroutines)
	}
	if m.Runtime.HeapInUseBytes <= 0 {
		t.Errorf("heapInUseBytes = %d, want > 0", m.Runtime.HeapInUseBytes)
	}
	if m.Runtime.GCPauseP99Ms < 0 {
		t.Errorf("gcPauseP99Ms = %v, want >= 0", m.Runtime.GCPauseP99Ms)
	}
}

// TestValueHistogramMerge covers the fleet-merge arithmetic the LB relies on.
func TestValueHistogramMerge(t *testing.T) {
	buckets := []float64{1, 2, 4}
	a := MakeValueHistogramSnapshot(buckets, []int64{1, 0, 2, 0}, 3, 7)
	b := MakeValueHistogramSnapshot(buckets, []int64{0, 1, 0, 1}, 2, 9)
	a.Merge(b)
	if a.Count != 5 || a.Sum != 16 {
		t.Fatalf("merged count/sum = %d/%v, want 5/16", a.Count, a.Sum)
	}
	want := []int64{1, 1, 2, 1}
	for i, c := range a.Counts {
		if c != want[i] {
			t.Fatalf("merged counts = %v, want %v", a.Counts, want)
		}
	}
	if a.Mean != 16.0/5 {
		t.Errorf("merged mean = %v, want 3.2", a.Mean)
	}

	// An empty receiver adopts the other side wholesale.
	var empty ValueHistogramSnapshot
	empty.Merge(b)
	if empty.Count != 2 || len(empty.Counts) != 4 {
		t.Fatalf("empty.Merge = %+v, want a copy of b", empty)
	}
	// A bucket-table mismatch (mixed-version fleet) keeps the receiver as-is.
	c := MakeValueHistogramSnapshot([]float64{1}, []int64{1, 1}, 2, 2)
	before := a.Count
	a.Merge(c)
	if a.Count != before {
		t.Errorf("mismatched-table merge changed the receiver: %+v", a)
	}
	// So does a table of the same length with different bounds: its counts
	// belong to other buckets.
	d := MakeValueHistogramSnapshot([]float64{1, 3, 8}, []int64{0, 0, 0, 4}, 4, 40)
	a.Merge(d)
	if a.Count != before || !slices.Equal(a.Counts, want) {
		t.Errorf("same-length, different-bounds merge changed the receiver: %+v", a)
	}
}
