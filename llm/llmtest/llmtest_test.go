package llmtest

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/llm"
)

func TestHandlerServesSimLLMOverHTTP(t *testing.T) {
	h := NewHandler(llm.NewSimLLM())
	srv := httptest.NewServer(h)
	defer srv.Close()

	client := &llm.HTTPClient{BaseURL: srv.URL, Model: "sim"}
	store := llm.BuiltinPrompts()

	// Classification round-trips through the real HTTP client wire format.
	resp, err := client.Complete(context.Background(), store.BuildRequest(llm.TaskClassify,
		llm.Message{Role: llm.RoleUser, Content: "Write a route-map stanza that denies routes originating from ASN 65001."}))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(resp.Content); got != "route-map" {
		t.Errorf("classify = %q, want route-map", got)
	}

	// Synthesis produces parseable IOS text.
	resp, err = client.Complete(context.Background(), store.BuildRequest(llm.TaskSynthRouteMap,
		llm.Message{Role: llm.RoleUser, Content: "Write a route-map stanza that denies routes originating from ASN 65001."}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "route-map") || !strings.Contains(resp.Content, "as-path") {
		t.Errorf("synth output = %q", resp.Content)
	}
	if h.Requests() != 2 {
		t.Errorf("requests = %d, want 2", h.Requests())
	}
}

func TestHandlerRejectsUnknownSystemPrompt(t *testing.T) {
	h := NewHandler(llm.NewSimLLM())
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &llm.HTTPClient{BaseURL: srv.URL, Model: "sim"}
	_, err := client.Complete(context.Background(), llm.Request{
		System:   "you are a pirate",
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "arr"}},
	})
	if err == nil {
		t.Fatal("want error for unknown system prompt")
	}
}

func TestHandlerSurfacesClientErrors(t *testing.T) {
	// A SimLLM given garbage intent text errors; the handler must translate
	// that into a 5xx the HTTP client reports.
	h := NewHandler(llm.NewSimLLM())
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &llm.HTTPClient{BaseURL: srv.URL, Model: "sim"}
	store := llm.BuiltinPrompts()
	_, err := client.Complete(context.Background(), store.BuildRequest(llm.TaskSynthRouteMap,
		llm.Message{Role: llm.RoleUser, Content: "gibberish that parses as no intent"}))
	if err == nil {
		t.Fatal("want error surfaced from the backing client")
	}
}
