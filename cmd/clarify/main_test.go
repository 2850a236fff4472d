package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/llm/llmtest"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/server"
)

const testConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
`

func TestInteractiveSession(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "isp.cfg")
	if err := os.WriteFile(cfgPath, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.cfg")

	// Scripted session: the paper's prompt, then OPTION 1 for both
	// questions, then an empty line to finish.
	script := strings.Join([]string{
		"Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.",
		"1",
		"1",
		"",
	}, "\n") + "\n"

	var out strings.Builder
	err := run(cliOptions{configPath: cfgPath, target: "ISP_OUT", llmKind: "sim", outPath: outPath, trace: &out}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"OPTION 1", "OPTION 2", "route-map SET_METRIC permit 10",
		`"metric": 55`, "Inserted at position 0 after 2 question(s)",
		"3 LLM calls, 2 disambiguation questions",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	final, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ip community-list expanded D2 permit _300:3_", "ip prefix-list D3 seq 10 permit 100.0.0.0/16 le 23"} {
		if !strings.Contains(string(final), want) {
			t.Errorf("final config missing %q:\n%s", want, final)
		}
	}
}

func TestInteractiveSessionAnswerValidation(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "isp.cfg")
	if err := os.WriteFile(cfgPath, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	// An invalid answer ("x") must be re-asked, then "2" accepted.
	script := strings.Join([]string{
		"Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.",
		"x",
		"2",
		"2",
		"",
	}, "\n") + "\n"
	var out strings.Builder
	if err := run(cliOptions{configPath: cfgPath, target: "ISP_OUT", llmKind: "sim"}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Please answer 1") {
		t.Error("invalid answer not re-prompted")
	}
	if !strings.Contains(out.String(), "Inserted at position 3") {
		t.Errorf("keep-existing answers should land at the bottom:\n%s", out.String())
	}
}

// TestRemoteSession replays the interactive walkthrough against a clarifyd
// served in-process, through the -remote client path.
func TestRemoteSession(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "isp.cfg")
	if err := os.WriteFile(cfgPath, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.cfg")

	srv := server.New(server.Options{Workers: 2})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	script := strings.Join([]string{
		"Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.",
		"1",
		"1",
		"",
	}, "\n") + "\n"

	var out strings.Builder
	if err := runRemote(hs.URL, cfgPath, "ISP_OUT", outPath, strings.NewReader(script), &out); err != nil {
		t.Fatalf("runRemote: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"OPTION 1", "OPTION 2", "route-map SET_METRIC permit 10",
		`"metric": 55`, "Inserted at position 0 after 2 question(s)",
		"3 LLM calls, 2 disambiguation questions",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	final, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ip community-list expanded D2 permit _300:3_", "ip prefix-list D3 seq 10 permit 100.0.0.0/16 le 23"} {
		if !strings.Contains(string(final), want) {
			t.Errorf("final config missing %q:\n%s", want, final)
		}
	}
}

// TestHTTPBackendRetries runs the walkthrough with -llm http against an
// endpoint that answers its first completion with 429 and Retry-After: 0.
// The http backend retries that completion, so the walkthrough completes.
func TestHTTPBackendRetries(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "isp.cfg")
	if err := os.WriteFile(cfgPath, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	sim := llmtest.NewHandler(llm.NewSimLLM())
	var calls atomic.Int32
	endpoint := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":{"message":"rate limited"}}`, http.StatusTooManyRequests)
			return
		}
		sim.ServeHTTP(w, r)
	}))
	defer endpoint.Close()

	script := strings.Join([]string{
		"Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.",
		"1",
		"1",
		"",
	}, "\n") + "\n"
	var out strings.Builder
	err := run(cliOptions{configPath: cfgPath, target: "ISP_OUT", llmKind: "http", baseURL: endpoint.URL, model: "sim"},
		strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Inserted at position 0 after 2 question(s)") {
		t.Errorf("walkthrough did not complete through one 429:\n%s", out.String())
	}
	if got := sim.Requests(); got != 3 {
		t.Errorf("endpoint served %d completions after the 429, want 3", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(cliOptions{configPath: "/nonexistent.cfg", target: "X", llmKind: "sim"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing config file should fail")
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "bad.cfg")
	_ = os.WriteFile(cfgPath, []byte("frobnicate\n"), 0o644)
	if err := run(cliOptions{configPath: cfgPath, target: "X", llmKind: "sim"}, strings.NewReader(""), &out); err == nil {
		t.Error("unparseable config should fail")
	}
	good := filepath.Join(dir, "good.cfg")
	_ = os.WriteFile(good, []byte(testConfig), 0o644)
	if err := run(cliOptions{configPath: good, target: "ISP_OUT", llmKind: "martian"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown backend should fail")
	}
}

// TestTraceJSON replays the paper walkthrough with one injected synthesis
// fault and checks the emitted span tree: a single trace whose stages cover
// classification, two synthesis attempts (the first rejected by the
// verifier), verification, and disambiguation, all with non-zero durations
// and BDD workload counters attributed to the symbolic stages.
func TestTraceJSON(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "isp.cfg")
	if err := os.WriteFile(cfgPath, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")

	script := strings.Join([]string{
		"Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.",
		"1",
		"1",
		"",
	}, "\n") + "\n"

	var out strings.Builder
	err := run(cliOptions{
		configPath: cfgPath, target: "ISP_OUT", llmKind: "sim",
		traceJSON: tracePath, simFaults: "wrong-value",
	}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 trace line, got %d", len(lines))
	}
	var tr obs.Trace
	if err := json.Unmarshal([]byte(lines[0]), &tr); err != nil {
		t.Fatalf("trace line is not valid JSON: %v", err)
	}
	if tr.ID == "" || tr.Root == nil || tr.Root.Name != "update" {
		t.Fatalf("malformed trace root: %+v", tr)
	}

	spans := map[string]*obs.Span{}
	tr.Walk(func(sp *obs.Span, _ int) { spans[sp.Name] = sp })
	for _, name := range []string{"classify", "synthesize-attempt-1", "synthesize-attempt-2", "verify", "disambiguate", "question-wait", "insert"} {
		sp, ok := spans[name]
		if !ok {
			t.Errorf("trace missing span %q", name)
			continue
		}
		if sp.Duration <= 0 {
			t.Errorf("span %q has non-positive duration %v", name, sp.Duration)
		}
	}
	if t.Failed() {
		t.Logf("trace:\n%s", lines[0])
		t.FailNow()
	}
	if a, ok := spans["synthesize-attempt-1"].Attr("fault-feedback"); !ok || a.Str == "" {
		t.Error("first attempt should carry the verifier's fault feedback")
	}
	if _, ok := spans["synthesize-attempt-2"].Attr("verified"); !ok {
		t.Error("second attempt should be marked verified")
	}
	// The verify and disambiguate stages do symbolic work: their BDD
	// counters must be attributed.
	for _, name := range []string{"verify", "disambiguate"} {
		a, ok := spans[name].Attr("bdd-ite-calls")
		if !ok || a.Int <= 0 {
			t.Errorf("span %q missing positive bdd-ite-calls counter (got %+v, ok=%v)", name, a, ok)
		}
	}
	if a, ok := spans["classify"].Attr("llm-ms"); !ok || a.Dur <= 0 {
		t.Errorf("classify span missing llm-ms latency (got %+v, ok=%v)", a, ok)
	}
}
