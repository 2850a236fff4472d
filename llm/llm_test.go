package llm

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/spec"
)

const paperPrompt = `Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55.`

func complete(t *testing.T, c Client, task Task, text string) Response {
	t.Helper()
	store := BuiltinPrompts()
	resp, err := c.Complete(context.Background(), store.BuildRequest(task, Message{Role: RoleUser, Content: text}))
	if err != nil {
		t.Fatalf("Complete(%v): %v", task, err)
	}
	return resp
}

func TestSimClassify(t *testing.T) {
	sim := NewSimLLM()
	if got := complete(t, sim, TaskClassify, paperPrompt).Content; got != "route-map" {
		t.Errorf("classify = %q", got)
	}
	if got := complete(t, sim, TaskClassify, "block tcp traffic to port 22").Content; got != "acl" {
		t.Errorf("classify = %q", got)
	}
	if sim.Calls(TaskClassify) != 2 || sim.TotalCalls() != 2 {
		t.Errorf("call counts wrong: %d/%d", sim.Calls(TaskClassify), sim.TotalCalls())
	}
}

func TestSimSynthesizesPaperSnippet(t *testing.T) {
	sim := NewSimLLM()
	resp := complete(t, sim, TaskSynthRouteMap, paperPrompt)
	cfg, err := ParseSnippet(resp)
	if err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, resp.Content)
	}
	rm := cfg.RouteMaps["SET_METRIC"]
	if rm == nil || len(rm.Stanzas) != 1 {
		t.Fatalf("expected one SET_METRIC stanza:\n%s", resp.Content)
	}
	st := rm.Stanzas[0]
	if !st.Permit || len(st.Matches) != 2 || len(st.Sets) != 1 {
		t.Errorf("stanza shape wrong:\n%s", resp.Content)
	}
	if st.Sets[0].(ios.SetMetric).Value != 55 {
		t.Error("metric != 55")
	}
	// The snippet verifies against the simultaneously generated spec.
	specResp := complete(t, sim, TaskSpecRouteMap, paperPrompt)
	sp, err := spec.ParseRouteMapSpec([]byte(specResp.Content))
	if err != nil {
		t.Fatalf("spec does not parse: %v\n%s", err, specResp.Content)
	}
	violations, err := spec.VerifyRouteMapSnippet(cfg, "SET_METRIC", sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("correct output should verify: %+v", violations)
	}
}

func TestSimFaultPlanCausesVerificationFailureThenRecovers(t *testing.T) {
	for _, fault := range []Fault{FaultWrongValue, FaultWidenMask, FaultDropMatch, FaultFlipAction} {
		sim := NewSimLLM(fault)
		resp := complete(t, sim, TaskSynthRouteMap, paperPrompt)
		cfg, err := ParseSnippet(resp)
		if err != nil {
			t.Fatalf("fault %v output should still parse: %v", fault, err)
		}
		sp, _ := spec.ParseRouteMapSpec([]byte(complete(t, sim, TaskSpecRouteMap, paperPrompt).Content))
		name := firstMapName(cfg)
		violations, err := spec.VerifyRouteMapSnippet(cfg, name, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) == 0 {
			t.Errorf("fault %v produced an output that still verifies:\n%s", fault, resp.Content)
		}
		// Retry: the plan is exhausted, so the next call is correct.
		resp2 := complete(t, sim, TaskSynthRouteMap, paperPrompt)
		cfg2, err := ParseSnippet(resp2)
		if err != nil {
			t.Fatal(err)
		}
		violations, err = spec.VerifyRouteMapSnippet(cfg2, "SET_METRIC", sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) != 0 {
			t.Errorf("fault %v retry should verify: %+v", fault, violations)
		}
	}
}

func firstMapName(cfg *ios.Config) string {
	for name := range cfg.RouteMaps {
		return name
	}
	return ""
}

func TestSimSyntaxFault(t *testing.T) {
	sim := NewSimLLM(FaultSyntax)
	resp := complete(t, sim, TaskSynthRouteMap, paperPrompt)
	if _, err := ParseSnippet(resp); err == nil {
		t.Fatal("syntax fault should not parse")
	}
}

func TestSimACLSynthesisAndSpec(t *testing.T) {
	sim := NewSimLLM()
	text := "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to host 8.8.8.8 on port 443."
	resp := complete(t, sim, TaskSynthACL, text)
	cfg, err := ParseSnippet(resp)
	if err != nil {
		t.Fatalf("%v\n%s", err, resp.Content)
	}
	sp, err := spec.ParseACLSpec([]byte(complete(t, sim, TaskSpecACL, text).Content))
	if err != nil {
		t.Fatal(err)
	}
	violations, err := spec.VerifyACLSnippet(cfg, "NEW_ENTRY", sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("violations: %+v", violations)
	}
}

func TestSimFeedbackMarkerExtraction(t *testing.T) {
	sim := NewSimLLM()
	store := BuiltinPrompts()
	// Retry turn: feedback followed by the restated intent.
	feedback := "The previous stanza was rejected: route 100.0.0.0/24 should be handled but is not matched." +
		FeedbackIntentMarker + paperPrompt
	resp, err := sim.Complete(context.Background(), store.BuildRequest(TaskSynthRouteMap,
		Message{Role: RoleUser, Content: paperPrompt},
		Message{Role: RoleAssistant, Content: "..."},
		Message{Role: RoleUser, Content: feedback},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSnippet(resp); err != nil {
		t.Fatalf("feedback turn not handled: %v", err)
	}
}

func TestSimRejectsUnparseableIntent(t *testing.T) {
	sim := NewSimLLM()
	store := BuiltinPrompts()
	_, err := sim.Complete(context.Background(), store.BuildRequest(TaskSynthRouteMap,
		Message{Role: RoleUser, Content: "please make the network good"}))
	if err == nil {
		t.Fatal("nonsense intent should fail")
	}
}

// TestBuiltinPromptsShared: every call returns the one store, and changing
// an entry Get returned leaves the store as it was.
func TestBuiltinPromptsShared(t *testing.T) {
	if BuiltinPrompts() != BuiltinPrompts() {
		t.Fatal("BuiltinPrompts built a second store")
	}
	e := BuiltinPrompts().Get(TaskClassify)
	want := e.FewShots[0].Content
	e.FewShots[0].Content = "changed"
	if got := BuiltinPrompts().Get(TaskClassify).FewShots[0].Content; got != want {
		t.Errorf("few-shot turn reads %q after a caller changed its copy, want %q", got, want)
	}
	if got := BuiltinPrompts().BuildRequest(TaskClassify).Messages[0].Content; got != want {
		t.Errorf("BuildRequest's first turn reads %q after a caller changed its copy, want %q", got, want)
	}
}

func TestPromptStoreShapes(t *testing.T) {
	store := BuiltinPrompts()
	for _, task := range []Task{TaskClassify, TaskSynthRouteMap, TaskSynthACL, TaskSpecRouteMap, TaskSpecACL} {
		e := store.Get(task)
		if e.System == "" {
			t.Errorf("task %v has no system prompt", task)
		}
		if len(e.FewShots)%2 != 0 {
			t.Errorf("task %v few-shots not paired", task)
		}
		req := store.BuildRequest(task, Message{Role: RoleUser, Content: "x"})
		if req.Task != task || len(req.Messages) != len(e.FewShots)+1 {
			t.Errorf("BuildRequest shape wrong for %v", task)
		}
	}
	// Few-shot synthesis examples must themselves parse.
	for _, task := range []Task{TaskSynthRouteMap, TaskSynthACL} {
		for _, m := range store.Get(task).FewShots {
			if m.Role == RoleAssistant {
				if _, err := ios.Parse(m.Content); err != nil {
					t.Errorf("few-shot for %v does not parse: %v", task, err)
				}
			}
		}
	}
	// Few-shot spec examples must parse as JSON.
	for _, m := range store.Get(TaskSpecRouteMap).FewShots {
		if m.Role == RoleAssistant {
			if _, err := spec.ParseRouteMapSpec([]byte(m.Content)); err != nil {
				t.Errorf("spec few-shot invalid: %v", err)
			}
		}
	}
}

func TestHTTPClient(t *testing.T) {
	var gotBody chatRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			http.NotFound(w, r)
			return
		}
		if auth := r.Header.Get("Authorization"); auth != "Bearer test-key" {
			t.Errorf("auth header = %q", auth)
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if !strings.Contains(string(raw), `"temperature":0`) {
			t.Errorf("request body lacks temperature 0: %s", raw)
		}
		if err := json.Unmarshal(raw, &gotBody); err != nil {
			t.Error(err)
		}
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"choices": []map[string]interface{}{
				{"message": map[string]string{"role": "assistant", "content": "route-map"}},
			},
		})
	}))
	defer srv.Close()
	c := &HTTPClient{BaseURL: srv.URL + "/v1", Model: "gpt-4", APIKey: "test-key"}
	resp, err := c.Complete(context.Background(), BuiltinPrompts().BuildRequest(TaskClassify,
		Message{Role: RoleUser, Content: paperPrompt}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "route-map" {
		t.Errorf("content = %q", resp.Content)
	}
	if gotBody.Model != "gpt-4" || len(gotBody.Messages) == 0 || gotBody.Messages[0].Role != RoleSystem {
		t.Errorf("request body wrong: %+v", gotBody)
	}
}

func TestHTTPClientErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"message":"overloaded"}}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := &HTTPClient{BaseURL: srv.URL, Model: "gpt-4"}
	_, err := c.Complete(context.Background(), Request{Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v", err)
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"choices":[]}`))
	}))
	defer empty.Close()
	c = &HTTPClient{BaseURL: empty.URL, Model: "gpt-4"}
	if _, err := c.Complete(context.Background(), Request{}); err == nil {
		t.Fatal("empty choices should fail")
	}
}

func TestSimACLFaultVariants(t *testing.T) {
	// Each ACL fault kind yields output that fails spec verification, then
	// the retry passes — same contract as route maps.
	text := "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to host 8.8.8.8 on port 443."
	for _, fault := range []Fault{FaultWrongValue, FaultWidenMask, FaultDropMatch, FaultFlipAction} {
		sim := NewSimLLM(fault)
		resp := complete(t, sim, TaskSynthACL, text)
		cfg, err := ParseSnippet(resp)
		if err != nil {
			t.Fatalf("fault %v output should parse: %v", fault, err)
		}
		sp, err := spec.ParseACLSpec([]byte(complete(t, sim, TaskSpecACL, text).Content))
		if err != nil {
			t.Fatal(err)
		}
		violations, err := spec.VerifyACLSnippet(cfg, "NEW_ENTRY", sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) == 0 {
			t.Errorf("fault %v not caught:\n%s", fault, resp.Content)
		}
		resp2 := complete(t, sim, TaskSynthACL, text)
		cfg2, err := ParseSnippet(resp2)
		if err != nil {
			t.Fatal(err)
		}
		violations, err = spec.VerifyACLSnippet(cfg2, "NEW_ENTRY", sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) != 0 {
			t.Errorf("fault %v retry still wrong: %+v", fault, violations)
		}
	}
	// Syntax fault on the ACL pipeline.
	sim := NewSimLLM(FaultSyntax)
	if _, err := ParseSnippet(complete(t, sim, TaskSynthACL, text)); err == nil {
		t.Error("syntax fault should not parse")
	}
}

func TestTaskAndFaultStrings(t *testing.T) {
	for task, want := range map[Task]string{
		TaskClassify: "classify", TaskSynthRouteMap: "synth-route-map",
		TaskSynthACL: "synth-acl", TaskSpecRouteMap: "spec-route-map",
		TaskSpecACL: "spec-acl", Task(99): "task(99)",
	} {
		if task.String() != want {
			t.Errorf("Task(%d).String() = %q", int(task), task.String())
		}
	}
	for fault, want := range map[Fault]string{
		FaultNone: "none", FaultWrongValue: "wrong-value", FaultWidenMask: "widen-mask",
		FaultDropMatch: "drop-match", FaultFlipAction: "flip-action", FaultSyntax: "syntax",
		Fault(99): "unknown",
	} {
		if fault.String() != want {
			t.Errorf("Fault(%d).String() = %q", int(fault), fault.String())
		}
	}
}

func TestSimUnsupportedTask(t *testing.T) {
	sim := NewSimLLM()
	_, err := sim.Complete(context.Background(), Request{Task: Task(42),
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	var ute *UnsupportedTaskError
	if !errors.As(err, &ute) {
		t.Fatalf("err = %v, want UnsupportedTaskError", err)
	}
	if ute.Error() == "" {
		t.Error("empty error text")
	}
}
