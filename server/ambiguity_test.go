package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDebugAmbiguityEndpoint runs the §2.1 walkthrough over HTTP and checks
// the daemon's live rollup: the /metrics ambiguity block must agree with
// what the update reported (two questions, binary strategy, route-map kind,
// zero residual), the Prometheus view must carry the same numbers, and
// GET /debug/ambiguity, which served the same block alone, answers 404.
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

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	snap := m.Ambiguity
	if snap == nil || snap.Rollup == nil {
		t.Fatalf("/metrics ambiguity block = %+v, want the rollup", snap)
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

	// The same rollup rides the Prometheus view.
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
	resp, err := http.Get(c.BaseURL + "/debug/ambiguity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/ambiguity = %d, want 404", resp.StatusCode)
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
