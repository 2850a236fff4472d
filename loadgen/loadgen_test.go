package loadgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/clarifynet/clarify/chaoshttp"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/llm/llmtest"
	"github.com/clarifynet/clarify/loadgen"
	"github.com/clarifynet/clarify/replay"
	"github.com/clarifynet/clarify/server"
)

// startDaemon runs a clarifyd behind httptest and returns its base URL.
func startDaemon(t *testing.T, opts server.Options) string {
	t.Helper()
	srv := server.New(opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
	})
	return hs.URL
}

// TestLoadSmoke is the CI smoke run: a short clarify-load burst against an
// in-process daemon must complete without failures, produce a parseable
// report, pass its gate with no slow update, and leave the daemon counting
// every update served and none failed.
func TestLoadSmoke(t *testing.T) {
	url := startDaemon(t, server.Options{Workers: 4})
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     url,
		Workers:     4,
		MaxUpdates:  8,
		Duration:    2 * time.Minute, // bounded by MaxUpdates, not time
		ACLFraction: 0.5,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates != 8 || rep.Failures != 0 {
		t.Fatalf("updates/failures = %d/%d, want 8/0; errors: %v",
			rep.Updates, rep.Failures, rep.Errors)
	}
	if rep.Throughput <= 0 || rep.Latency.Count != 8 || rep.Latency.P50Ms <= 0 {
		t.Fatalf("report lacks throughput/latency: %+v", rep)
	}
	if rep.Latency.P99Ms < rep.Latency.P50Ms || rep.Latency.MaxMs < rep.Latency.P99Ms {
		t.Errorf("percentiles unordered: %+v", rep.Latency)
	}

	// The report must round-trip as JSON (CI parses it with a script).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Updates != rep.Updates {
		t.Fatalf("JSON round trip lost updates: %d != %d", back.Updates, rep.Updates)
	}

	if !rep.Pass || rep.SlowUpdates != 0 {
		t.Errorf("gate red or slow updates on a clean run: pass %v, %d slow", rep.Pass, rep.SlowUpdates)
	}
	m, err := (&server.Client{BaseURL: url}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.FailedUpdates != 0 || m.Pipeline.Updates < 8 {
		t.Errorf("daemon failed/updates = %d/%d, want 0/>= 8", m.FailedUpdates, m.Pipeline.Updates)
	}
}

// TestIntentDeterminism: identical seeds must generate identical traffic, so
// a load run is reproducible.
func TestIntentDeterminism(t *testing.T) {
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		acl := i%2 == 0
		ia, ib := loadgen.Intent(a, acl), loadgen.Intent(b, acl)
		if ia != ib {
			t.Fatalf("intent %d diverged:\n%s\n%s", i, ia, ib)
		}
	}
}

// TestLoadChaosBurnRate is the gate's acceptance run: clarify-load against
// a daemon whose LLM endpoint is hard down must end red, and the daemon
// must count the failed updates a burn-rate rule over its metrics would
// alert on.
func TestLoadChaosBurnRate(t *testing.T) {
	// A real llmtest endpoint behind a 100%-reset chaos transport: every
	// completion dies, every update fails.
	endpoint := httptest.NewServer(llmtest.NewHandler(llm.NewSimLLM()))
	t.Cleanup(endpoint.Close)
	rt := chaoshttp.New(chaoshttp.Plan{Seed: 1, Reset: 1}, endpoint.Client().Transport)
	url := startDaemon(t, server.Options{
		Workers: 4,
		LLM: &llm.HTTPClient{
			BaseURL: endpoint.URL,
			Model:   "sim",
			HTTP:    &http.Client{Transport: rt, Timeout: 5 * time.Second},
		},
	})

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    url,
		Workers:    2,
		MaxUpdates: 8,
		Duration:   time.Minute,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatalf("no failures under a hard-down LLM endpoint: %+v", rep)
	}
	if rep.Pass {
		t.Errorf("gate green after %d/%d failures", rep.Failures, rep.Updates)
	}
	m, err := (&server.Client{BaseURL: url}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.FailedUpdates == 0 {
		t.Errorf("daemon counted no failed update after %d client-side failures", rep.Failures)
	}
}

// TestRunFinishesInFlightUpdates: a run whose deadline lands mid-dialogue
// drives each update already started to its end before deleting the
// session and fetching the daemon's ambiguity view. Afterwards no update is
// left parked on a question (the question timeout is an hour), every
// journal record replays from its recorded answers, and the report's
// daemonAmbiguity is the ambiguity block of the daemon's final /metrics.
func TestRunFinishesInFlightUpdates(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	// Sixteen unpaced route-map workers (ACL updates on this corpus ask no
	// questions): at any moment some update is usually waiting on one.
	url := startDaemon(t, server.Options{Workers: 16, Journal: jnl, QuestionTimeout: time.Hour})
	ctx := context.Background()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     url,
		Workers:     16,
		Duration:    300 * time.Millisecond,
		ACLFraction: -1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures: %v", rep.Failures, rep.Errors)
	}
	// The last update's worker can return before the daemon's bookkeeping
	// after it does; anything still active after 5 s is parked.
	c := &server.Client{BaseURL: url}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.ActiveUpdates == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d updates still active after the run", m.ActiveUpdates)
		}
	}
	recs, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("run journaled no update")
	}
	for i, rec := range recs {
		if out := replay.Record(ctx, rec, i, replay.Options{}); out.Status != replay.StatusMatch {
			t.Errorf("record %d (%s): %s: %s", i, rec.Target, out.Status, out.Detail)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep.DaemonAmbiguity)
	want, _ := json.Marshal(m.Ambiguity)
	if m.Ambiguity == nil || m.Ambiguity.Rollup.Total.Updates == 0 || !bytes.Equal(got, want) {
		t.Errorf("report's daemonAmbiguity %s, the /metrics ambiguity block after the run %s", got, want)
	}
}
