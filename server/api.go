// Package server exposes the Clarify pipeline (clarify.Session) as a
// concurrent JSON-over-HTTP service: many sessions, a bounded worker pool
// with backpressure, asynchronous disambiguation (the operator answers the
// paper's OPTION 1/2 questions over HTTP while the pipeline goroutine is
// parked), and an observability layer (/healthz, /metrics, request logging,
// graceful shutdown).
//
// The wire format is defined in this file and shared by the handlers
// (server.go) and the Go client (client.go).
package server

import (
	"encoding/json"
	"fmt"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
)

// CreateSessionRequest creates a session from a base configuration.
type CreateSessionRequest struct {
	// Config is the Cisco IOS base configuration text.
	Config string `json:"config"`
	// MaxAttempts bounds synthesis retries (0 = pipeline default).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// EnableReuse turns on the verified-snippet cache.
	EnableReuse bool `json:"enableReuse,omitempty"`
	// SkipVerification disables the verifier (ablation only).
	SkipVerification bool `json:"skipVerification,omitempty"`
}

// CreateSessionResponse returns the new session's identifier.
type CreateSessionResponse struct {
	ID string `json:"id"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID string `json:"id"`
	// Busy reports whether an update is queued or running.
	Busy bool `json:"busy"`
	// Updates counts updates submitted so far (any status).
	Updates int `json:"updates"`
	// IdleSeconds is the time since the session was last touched.
	IdleSeconds float64 `json:"idleSeconds"`
	// Tenant is the admission principal the session was created under.
	Tenant string `json:"tenant,omitempty"`
}

// SubmitRequest submits one natural-language intent against a target
// route-map or ACL name.
type SubmitRequest struct {
	Intent string `json:"intent"`
	Target string `json:"target"`
	// Async makes the submit return immediately with an update ID to poll
	// (also selectable with the ?async=1 query parameter).
	Async bool `json:"async,omitempty"`
}

// Update statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	// StatusWaiting means the pipeline is parked on a disambiguation
	// question; fetch it at GET /v1/sessions/{id}/question.
	StatusWaiting = "waiting"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// UpdateInfo is the poll view of one submitted update.
type UpdateInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// TraceID identifies the pipeline trace recorded for this update; fetch
	// its span tree at GET /debug/traces/{traceID} while retained.
	TraceID string `json:"traceId,omitempty"`
	// Degraded reports that at least one LLM completion of this update was
	// served by a fallback backend rather than the primary.
	Degraded bool `json:"degraded,omitempty"`
	// Result is set once Status is "done".
	Result *UpdateResultInfo `json:"result,omitempty"`
}

// Terminal reports whether the update has finished (successfully or not).
func (u *UpdateInfo) Terminal() bool {
	return u.Status == StatusDone || u.Status == StatusFailed
}

// UpdateResultInfo is the JSON projection of clarify.UpdateResult.
type UpdateResultInfo struct {
	Kind        string `json:"kind"`
	SnippetText string `json:"snippetText"`
	SpecJSON    string `json:"specJson"`
	Attempts    int    `json:"attempts"`
	// Position is the insertion index chosen by disambiguation.
	Position int `json:"position"`
	// Questions is the number of differential questions asked.
	Questions int `json:"questions"`
	// Renames maps snippet ancillary-list names to their fresh names in the
	// merged configuration (route-map updates only).
	Renames map[string]string `json:"renames,omitempty"`
}

// newUpdateResultInfo projects a pipeline result onto the wire type.
func newUpdateResultInfo(res *clarify.UpdateResult) *UpdateResultInfo {
	_, questions, position, _ := res.Placement()
	out := &UpdateResultInfo{
		Kind:        res.Kind.String(),
		SnippetText: res.SnippetText,
		SpecJSON:    res.SpecJSON,
		Attempts:    res.Attempts,
		Position:    position,
		Questions:   questions,
	}
	if res.RouteInsert != nil {
		out.Renames = res.RouteInsert.Renames
	}
	return out
}

// Question is one pending differential disambiguation question: the concrete
// witness input plus the two behavioural options of §2.2. Exactly one of
// Route or Packet is set.
type Question struct {
	// Seq identifies the question within its session; an answer must echo
	// it so stale answers are rejected.
	Seq int `json:"seq"`
	// Kind is "route-map" or "acl".
	Kind string `json:"kind"`
	// Route is the witness route (route-map questions).
	Route *route.Route `json:"route,omitempty"`
	// Packet is the witness packet in IOS-ish rendering (ACL questions).
	Packet string `json:"packet,omitempty"`
	// Option1 is the behaviour if the new rule handles the witness;
	// Option2 is the existing configuration's behaviour.
	Option1 string `json:"option1"`
	Option2 string `json:"option2"`
	// Text is the full OPTION 1 / OPTION 2 rendering shown by the CLIs.
	Text string `json:"text"`
}

// newRouteQuestion renders a disambiguator route question for the wire.
func newRouteQuestion(seq int, q disambig.RouteQuestion) *Question {
	in := q.Input
	return &Question{
		Seq:     seq,
		Kind:    "route-map",
		Route:   &in,
		Option1: renderRouteVerdict(q.NewVerdict),
		Option2: renderRouteVerdict(q.OldVerdict),
		Text:    q.String(),
	}
}

// newACLQuestion renders a disambiguator ACL question for the wire.
func newACLQuestion(seq int, q disambig.ACLQuestion) *Question {
	return &Question{
		Seq:     seq,
		Kind:    "acl",
		Packet:  q.Input.String(),
		Option1: renderACLAction(q.NewPermit),
		Option2: renderACLAction(q.OldPermit),
		Text:    q.String(),
	}
}

func renderRouteVerdict(v policy.RouteVerdict) string {
	if !v.Permit {
		return "deny"
	}
	return "permit; output " + v.Output.String()
}

func renderACLAction(permit bool) string {
	if permit {
		return "permit"
	}
	return "deny"
}

// QuestionResponse wraps the question poll: Pending is false (and Question
// nil) when the pipeline is not parked on a question.
type QuestionResponse struct {
	Pending  bool      `json:"pending"`
	Question *Question `json:"question,omitempty"`
}

// AnswerRequest answers the pending question.
type AnswerRequest struct {
	// Seq must match the pending question's sequence number.
	Seq int `json:"seq"`
	// Option is 1 (the new rule applies to the witness) or 2 (keep the
	// existing behaviour).
	Option int `json:"option"`
}

// HealthStatus is the body of GET /healthz and GET /readyz. Beyond the
// status string, it carries the load signals a fronting balancer's probe
// needs: active_sessions and queue_depth feed load-aware create placement,
// and draining tells the balancer to stop routing new sessions here while
// in-flight ones finish (connection draining).
type HealthStatus struct {
	// Status is "ok"/"ready", "degraded", "draining", or "unready".
	Status string `json:"status"`
	// Draining is true from the moment Shutdown begins until the process
	// exits; session traffic is still served so parked Q&A can finish.
	Draining bool `json:"draining"`
	// ActiveSessions is the live session count.
	ActiveSessions int `json:"active_sessions"`
	// ActiveUpdates counts updates executing or parked on a question.
	ActiveUpdates int64 `json:"active_updates"`
	// QueueDepth / QueueCapacity describe the bounded submission queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// LLM flags the backend path when it is not the healthy primary:
	// "fallback" (degraded mode) or "breaker-open" (unready).
	LLM string `json:"llm,omitempty"`
}

// StatsResponse reports the session's cumulative pipeline counters.
type StatsResponse struct {
	Stats clarify.Stats `json:"stats"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429 responses (mirrors the Retry-After
	// header) so programmatic clients can back off without header parsing.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
	// Reason machine-tags the failure class; 410 Gone replies carry
	// "evicted" so clients and balancers can distinguish a dead session from
	// an ID that never existed.
	Reason string `json:"reason,omitempty"`
}

// RestoreSessionResponse acknowledges a PUT /v1/sessions/{id}/restore: the
// session is live again, and Pending reports whether an interrupted update
// is being re-executed (its question will reappear under the same ID).
type RestoreSessionResponse struct {
	ID      string `json:"id"`
	Pending bool   `json:"pending,omitempty"`
}

// APIError is the typed error the client returns for non-2xx replies.
type APIError struct {
	StatusCode        int
	Message           string
	RetryAfterSeconds int
	// Reason mirrors ErrorResponse.Reason ("evicted" on 410 Gone).
	Reason string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("clarifyd: %d: %s", e.StatusCode, e.Message)
}

// decodeStrict unmarshals a JSON request body into v, rejecting an empty
// body. Unknown fields are ignored, as json.Unmarshal ignores them.
func decodeStrict(data []byte, v interface{}) error {
	if len(data) == 0 {
		return fmt.Errorf("empty request body")
	}
	return json.Unmarshal(data, v)
}
