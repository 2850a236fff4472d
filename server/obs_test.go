package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/obs"
)

// runWalkthrough drives one §2.1 update through the API, answering every
// question with OPTION 1, and returns the finished update info.
func runWalkthrough(t testing.TB, c *Client, sid string) UpdateInfo {
	t.Helper()
	res, err := c.RunUpdate(context.Background(), sid, exampleIntent, "ISP_OUT",
		func(Question) (int, error) { return 1, nil })
	if err != nil {
		t.Fatalf("run update: %v", err)
	}
	if res.Status != StatusDone {
		t.Fatalf("update did not finish: %+v", res)
	}
	return res
}

// TestUpdateCarriesTraceID checks that a finished update reports the ID of
// its recorded trace and that /debug/traces resolves it to a span tree.
func TestUpdateCarriesTraceID(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	res := runWalkthrough(t, c, sid)
	if res.TraceID == "" {
		t.Fatal("finished update has no traceId")
	}

	resp, err := http.Get(c.BaseURL + "/debug/traces/" + res.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d", res.TraceID, resp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != res.TraceID || tr.Root == nil || tr.Root.Name != "update" {
		t.Fatalf("trace round trip lost shape: %+v", tr)
	}
	for _, stage := range []string{"classify", "synthesize-attempt-1", "verify", "disambiguate"} {
		if tr.Find(stage) == nil {
			t.Errorf("served trace missing %q span", stage)
		}
	}

	// The listing shows it newest-first with the root's target attribute.
	resp, err = http.Get(c.BaseURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []TraceSummary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != res.TraceID || list[0].Target != "ISP_OUT" {
		t.Fatalf("trace listing = %+v", list)
	}
	if list[0].Spans < 6 || list[0].DurationMs <= 0 {
		t.Errorf("summary lacks shape: %+v", list[0])
	}
}

// TestTraceRingEviction fills a small ring past capacity and checks that the
// oldest trace becomes unresolvable while the newest remain, oldest-out.
func TestTraceRingEviction(t *testing.T) {
	r := obs.NewRing(2)
	ts := make([]*obs.Trace, 3)
	for i := range ts {
		ts[i] = obs.NewTrace("update")
		ts[i].Finish()
		r.Add(ts[i])
	}
	if _, ok := r.Get(ts[0].ID); ok {
		t.Fatal("oldest trace must be evicted at capacity")
	}
	for _, tr := range ts[1:] {
		if _, ok := r.Get(tr.ID); !ok {
			t.Fatalf("retained trace %s must resolve", tr.ID)
		}
	}
	if got := r.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	list := r.List()
	if len(list) != 2 || list[0] != ts[2] || list[1] != ts[1] {
		t.Fatalf("List must be the retained traces newest-first, got %d entries", len(list))
	}

}

// TestConcurrentTraceRecording hammers several sessions at once (run under
// -race in CI) and checks every update records a resolvable trace.
func TestConcurrentTraceRecording(t *testing.T) {
	srv, c := startServer(t, Options{Workers: 4})
	const sessions = 4
	var wg sync.WaitGroup
	ids := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		sid, err := c.CreateSession(context.Background(), CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sid string) {
			defer wg.Done()
			res, err := c.RunUpdate(context.Background(), sid, exampleIntent, "ISP_OUT",
				func(Question) (int, error) { return 1, nil })
			if err != nil || res.Status != StatusDone {
				t.Errorf("session %d: %v %+v", i, err, res)
				return
			}
			ids[i] = res.TraceID
		}(i, sid)
	}
	wg.Wait()
	if srv.traces.Total() != sessions {
		t.Errorf("recorded %d traces, want %d", srv.traces.Total(), sessions)
	}
	for i, id := range ids {
		if id == "" {
			continue // already reported above
		}
		if _, ok := srv.traces.Get(id); !ok {
			t.Errorf("session %d trace %s not retained", i, id)
		}
	}
}

// promFamily collects one metric family's parsed exposition lines.
type promFamily struct {
	help    string
	typ     string
	samples map[string]float64 // full sample name with labels → value
}

// parsePromText parses the Prometheus 0.0.4 text exposition into families,
// failing the test on any malformed line or HELP/TYPE ordering violation.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	get := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{samples: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
			get(name).help = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			if get(name).help == "" {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", ln+1, name)
			}
			get(name).typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		case strings.TrimSpace(line) == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			// Label values may contain spaces ("GET /metrics"), so the
			// value is everything after the LAST space.
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			sample, value := line[:cut], line[cut+1:]
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
			}
			// The family is the sample name minus labels and, for
			// histograms, the _bucket/_sum/_count suffix.
			name := sample
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if fam := strings.TrimSuffix(name, suf); fam != name && fams[fam] != nil {
					base = fam
					break
				}
			}
			f := fams[base]
			if f == nil || f.typ == "" {
				t.Fatalf("line %d: sample %q precedes its # TYPE", ln+1, sample)
			}
			f.samples[sample] = v
		}
	}
	return fams
}

// checkHistogram validates one labelled histogram series: buckets cumulative
// and monotone, +Inf bucket present and equal to _count.
func checkHistogram(t *testing.T, f *promFamily, name, labels string) {
	t.Helper()
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	prefix := name + "_bucket{" + labels
	for sample, v := range f.samples {
		if !strings.HasPrefix(sample, prefix) {
			continue
		}
		leStart := strings.Index(sample, `le="`)
		if leStart < 0 {
			t.Fatalf("bucket sample %q has no le label", sample)
		}
		leStr := sample[leStart+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil && leStr != "+Inf" {
			t.Fatalf("bucket sample %q: bad le %q", sample, leStr)
		}
		if leStr == "+Inf" {
			le = 1e308
		}
		buckets = append(buckets, bucket{le, v})
	}
	if len(buckets) < 2 {
		t.Fatalf("%s{%s}: want at least one finite bucket plus +Inf, got %d", name, labels, len(buckets))
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Fatalf("%s{%s}: buckets not cumulative: le=%g count=%g < previous %g",
				name, labels, buckets[i].le, buckets[i].count, buckets[i-1].count)
		}
	}
	countName := fmt.Sprintf("%s_count{%s}", name, labels)
	if labels == "" {
		countName = name + "_count"
	}
	count, ok := f.samples[countName]
	if !ok {
		t.Fatalf("%s{%s}: missing _count sample (looked for %q)", name, labels, countName)
	}
	if inf := buckets[len(buckets)-1]; inf.count != count {
		t.Fatalf("%s{%s}: +Inf bucket %g != _count %g", name, labels, inf.count, count)
	}
}

// TestPrometheusExposition drives one update and validates the full
// /metrics?format=prometheus output as well-formed 0.0.4 text exposition
// with per-stage latency histograms.
func TestPrometheusExposition(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, CreateSessionRequest{Config: exampleConfig})
	if err != nil {
		t.Fatal(err)
	}
	runWalkthrough(t, c, sid)

	resp, err := http.Get(c.BaseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePromText(t, string(body))

	wantCounters := map[string]float64{
		"clarifyd_pipeline_llm_calls_total":       3,
		"clarifyd_pipeline_updates_total":         1,
		"clarifyd_pipeline_disambiguations_total": 2,
		"clarifyd_traces_total":                   1,
	}
	for name, want := range wantCounters {
		f := fams[name]
		if f == nil || f.typ != "counter" {
			t.Errorf("missing counter family %s: %+v", name, f)
			continue
		}
		if got := f.samples[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	for _, name := range []string{"clarifyd_workers", "clarifyd_queue_capacity", "clarifyd_sessions"} {
		f := fams[name]
		if f == nil || f.typ != "gauge" {
			t.Errorf("missing gauge family %s", name)
		}
	}
	// The walkthrough's spaces compiled their regexes through the cache's
	// automaton table, which the gauge reports.
	if f := fams["clarifyd_space_cache_automata"]; f == nil || f.typ != "gauge" ||
		f.samples["clarifyd_space_cache_automata"] < 1 {
		t.Errorf("space-cache automata gauge missing or zero: %+v", f)
	}
	if f := fams["clarifyd_requests_total"]; f == nil ||
		f.samples[`clarifyd_requests_total{endpoint="POST /v1/sessions"}`] < 1 {
		t.Errorf("per-endpoint request counters missing: %+v", f)
	}

	// Request-latency histogram for session create.
	reqHist := fams["clarifyd_request_duration_ms"]
	if reqHist == nil || reqHist.typ != "histogram" {
		t.Fatalf("missing request duration histogram: %+v", reqHist)
	}
	checkHistogram(t, reqHist, "clarifyd_request_duration_ms", `endpoint="POST /v1/sessions"`)

	// Per-stage pipeline histograms: every canonical stage of the §2.1
	// walkthrough must be present with at least one observation.
	stageHist := fams["clarifyd_stage_duration_ms"]
	if stageHist == nil || stageHist.typ != "histogram" {
		t.Fatalf("missing stage duration histogram: %+v", stageHist)
	}
	for _, stage := range []string{"update", "classify", "spec-extract", "synthesize-attempt", "parse", "verify", "disambiguate", "question-wait", "insert"} {
		labels := `stage="` + stage + `"`
		checkHistogram(t, stageHist, "clarifyd_stage_duration_ms", labels)
		if n := stageHist.samples[`clarifyd_stage_duration_ms_count{`+labels+`}`]; n < 1 {
			t.Errorf("stage %s has no observations", stage)
		}
	}

	// Any other format, OpenMetrics included, falls back to the JSON view.
	jresp, err := http.Get(c.BaseURL + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap MetricsSnapshot
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("?format=openmetrics Content-Type = %q, want the JSON fallback", ct)
	} else if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil || snap.Pipeline.Updates != 1 {
		t.Errorf("?format=openmetrics body = %+v (%v), want the JSON snapshot", snap.Pipeline, err)
	}
}
