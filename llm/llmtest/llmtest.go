// Package llmtest serves any llm.Client — typically the deterministic
// SimLLM — behind an OpenAI-compatible chat-completions HTTP endpoint, so
// the real llm.HTTPClient transport path (retries, backoff, chaos
// injection) can be exercised end-to-end in tests without a network model.
package llmtest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"github.com/clarifynet/clarify/llm"
)

// chatRequest mirrors the wire form llm.HTTPClient posts.
type chatRequest struct {
	Model    string        `json:"model"`
	Messages []llm.Message `json:"messages"`
}

// chatResponse mirrors the wire form llm.HTTPClient decodes.
type chatResponse struct {
	Choices []struct {
		Message llm.Message `json:"message"`
	} `json:"choices"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// Handler is an http.Handler implementing POST .../chat/completions backed
// by an llm.Client. The pipeline task — which the HTTP wire format carries
// only implicitly, inside the system prompt — is recovered by matching the
// system message against the built-in prompt store, so the backing client
// (SimLLM dispatches on Task) behaves exactly as it would in-process.
type Handler struct {
	client   llm.Client
	store    *llm.PromptStore
	requests atomic.Int64
}

// NewHandler wraps client as a chat-completions endpoint.
func NewHandler(client llm.Client) *Handler {
	return &Handler{client: client, store: llm.BuiltinPrompts()}
}

// Requests counts completions served (successful or not).
func (h *Handler) Requests() int64 { return h.requests.Load() }

// taskFor recovers the pipeline task from the system prompt text.
func (h *Handler) taskFor(system string) (llm.Task, bool) {
	for _, t := range []llm.Task{llm.TaskClassify, llm.TaskSynthRouteMap, llm.TaskSynthACL,
		llm.TaskSpecRouteMap, llm.TaskSpecACL} {
		if h.store.Get(t).System == system {
			return t, true
		}
	}
	return 0, false
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/chat/completions") {
		http.NotFound(w, r)
		return
	}
	h.requests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		writeChatError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	var req chatRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeChatError(w, http.StatusBadRequest, fmt.Sprintf("decode body: %v", err))
		return
	}
	var system string
	msgs := make([]llm.Message, 0, len(req.Messages))
	for _, m := range req.Messages {
		if m.Role == llm.RoleSystem && system == "" {
			system = m.Content
			continue
		}
		msgs = append(msgs, m)
	}
	task, ok := h.taskFor(system)
	if !ok {
		writeChatError(w, http.StatusBadRequest, "unrecognized system prompt")
		return
	}
	resp, err := h.client.Complete(r.Context(), llm.Request{Task: task, System: system, Messages: msgs})
	if err != nil {
		writeChatError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var out chatResponse
	out.Choices = append(out.Choices, struct {
		Message llm.Message `json:"message"`
	}{Message: llm.Message{Role: llm.RoleAssistant, Content: resp.Content}})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// writeChatError renders the OpenAI-style error envelope.
func writeChatError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]interface{}{
		"error": map[string]string{"message": msg},
	})
}

var _ http.Handler = (*Handler)(nil)
