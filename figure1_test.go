package clarify

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
)

// scriptedSynth serves scripted synthesis outputs in order, then defers to
// the simulator; every other task goes straight to the simulator. It keeps
// the messages of every synthesis request, which is what a real model sees
// on a retry — the simulator itself ignores everything above the feedback
// marker. When cancelAfter > 0 it cancels the update after serving that
// many synthesis calls.
type scriptedSynth struct {
	sim         *llm.SimLLM
	script      []string
	cancelAfter int
	cancel      context.CancelFunc

	mu       sync.Mutex
	requests [][]llm.Message
}

func (c *scriptedSynth) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Task != llm.TaskSynthRouteMap && req.Task != llm.TaskSynthACL {
		return c.sim.Complete(ctx, req)
	}
	c.mu.Lock()
	c.requests = append(c.requests, append([]llm.Message(nil), req.Messages...))
	n := len(c.requests)
	var out string
	scripted := len(c.script) > 0
	if scripted {
		out, c.script = c.script[0], c.script[1:]
	}
	c.mu.Unlock()
	if n == c.cancelAfter {
		c.cancel()
	}
	if scripted {
		return llm.Response{Content: out}, nil
	}
	return c.sim.Complete(ctx, req)
}

// attemptWant is what one synthesize-attempt span must record. violations
// is -1 when the attempt never reached the verifier.
type attemptWant struct {
	feedback   string
	verified   bool
	violations int64
}

const figure1ACLBase = `ip access-list extended EDGE
 deny tcp any any eq 22
 permit tcp any any established
 deny ip any any
`

const figure1ACLIntent = "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to any host on port 22."

// TestFigure1LoopFeedback pins the verify-and-retry loop of Figure 1 for
// both rule kinds: the exact feedback turn each retry sends the model, the
// attempt spans' attributes, the attempt count and the session counters.
func TestFigure1LoopFeedback(t *testing.T) {
	const (
		rmBad2    = "route-map X permit 10\n set metric 55\nroute-map X permit 20\n"
		rmUndef   = "route-map X permit 10\n match ip address prefix-list NOPE\n set metric 55\n"
		rmViolate = "route-map X permit 10\n set metric 55\n"
		rmSyntax  = "route-map X permit\n"
		aclBad2   = "ip access-list extended N\n permit tcp 10.0.0.0 0.0.0.255 any eq 22\n deny ip any any\n"
		aclDeny   = "ip access-list extended N\n deny tcp 10.0.0.0 0.0.0.255 any eq 22\n"
		aclSyntax = "ip access-list extended N\n permit tcp\n"
	)
	const (
		fbRMSyntax  = `The previous output was not valid Cisco IOS syntax: ios: line 1: want 'route-map NAME permit|deny SEQ' (in "route-map X permit").`
		fbRMTwo     = "The previous output was malformed: want exactly one stanza, got 2."
		fbRMUndef   = `The previous output references undefined data structures: ios: route-map X references undefined prefix-list "NOPE".`
		fbRMViolate = "The previous stanza does not meet the specification: [extra-input] route 0.0.0.0/0 (communities []) is matched but outside the specified behaviour"
		fbACLSyntax = `The previous output was not valid Cisco IOS syntax: ios: line 2: source: missing address (in "permit tcp").`
		fbACLTwo    = "The previous output was malformed: want exactly one entry, got 2."
		fbACLDeny   = "The previous entry does not meet the specification: [wrong-action] entry action false, spec wants true"
	)
	verified := attemptWant{verified: true, violations: 0}
	unverified := attemptWant{verified: true, violations: -1}
	cases := []struct {
		name        string
		acl         bool
		script      []string
		maxAttempts int
		skipVerify  bool
		cancelAfter int

		wantErr      error
		wantErrText  string
		wantAttempts []attemptWant
		wantStats    Stats
	}{
		{name: "rm-syntax", script: []string{rmSyntax},
			wantAttempts: []attemptWant{{feedback: fbRMSyntax, violations: -1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 2, Retries: 1, Updates: 1}},
		{name: "rm-two-stanzas", script: []string{rmBad2},
			wantAttempts: []attemptWant{{feedback: fbRMTwo, violations: -1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 2, Retries: 1, Updates: 1}},
		{name: "rm-undefined-list", script: []string{rmUndef},
			wantAttempts: []attemptWant{{feedback: fbRMUndef, violations: -1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 2, Retries: 1, Updates: 1}},
		{name: "rm-spec-violation", script: []string{rmViolate},
			wantAttempts: []attemptWant{{feedback: fbRMViolate, violations: 1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 2, Retries: 1, Updates: 1}},
		{name: "rm-punt", script: []string{rmSyntax, rmBad2, rmViolate}, wantErr: ErrPunt,
			wantAttempts: []attemptWant{{feedback: fbRMSyntax, violations: -1}, {feedback: fbRMTwo, violations: -1}, {feedback: fbRMViolate, violations: 1}},
			wantStats:    Stats{LLMCalls: 5, Retries: 2, Punts: 1}},
		{name: "rm-punt-max2", script: []string{rmUndef, rmViolate}, maxAttempts: 2, wantErr: ErrPunt,
			wantAttempts: []attemptWant{{feedback: fbRMUndef, violations: -1}, {feedback: fbRMViolate, violations: 1}},
			wantStats:    Stats{LLMCalls: 4, Retries: 1, Punts: 1}},
		{name: "rm-skip-verification", script: []string{rmViolate}, skipVerify: true,
			wantAttempts: []attemptWant{unverified},
			wantStats:    Stats{LLMCalls: 3, Disambiguations: 2, Updates: 1}},
		{name: "rm-cancel", script: []string{rmViolate}, cancelAfter: 1, wantErr: context.Canceled, wantErrText: "clarify: update cancelled: context canceled",
			wantAttempts: []attemptWant{{feedback: fbRMViolate, violations: 1}},
			wantStats:    Stats{LLMCalls: 3}},

		{name: "acl-syntax", acl: true, script: []string{aclSyntax},
			wantAttempts: []attemptWant{{feedback: fbACLSyntax, violations: -1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 1, Retries: 1, Updates: 1}},
		{name: "acl-two-entries", acl: true, script: []string{aclBad2},
			wantAttempts: []attemptWant{{feedback: fbACLTwo, violations: -1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 1, Retries: 1, Updates: 1}},
		{name: "acl-spec-violation", acl: true, script: []string{aclDeny},
			wantAttempts: []attemptWant{{feedback: fbACLDeny, violations: 1}, verified},
			wantStats:    Stats{LLMCalls: 4, Disambiguations: 1, Retries: 1, Updates: 1}},
		{name: "acl-punt", acl: true, script: []string{aclSyntax, aclBad2, aclDeny}, wantErr: ErrPunt,
			wantAttempts: []attemptWant{{feedback: fbACLSyntax, violations: -1}, {feedback: fbACLTwo, violations: -1}, {feedback: fbACLDeny, violations: 1}},
			wantStats:    Stats{LLMCalls: 5, Retries: 2, Punts: 1}},
		{name: "acl-skip-verification", acl: true, script: []string{aclDeny}, skipVerify: true,
			wantAttempts: []attemptWant{unverified},
			wantStats:    Stats{LLMCalls: 3, Updates: 1}},
		{name: "acl-cancel", acl: true, script: []string{aclDeny}, cancelAfter: 1, wantErr: context.Canceled, wantErrText: "clarify: update cancelled: context canceled",
			wantAttempts: []attemptWant{{feedback: fbACLDeny, violations: 1}},
			wantStats:    Stats{LLMCalls: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			client := &scriptedSynth{sim: llm.NewSimLLM(), script: tc.script, cancelAfter: tc.cancelAfter, cancel: cancel}
			var tr *obs.Trace
			s := &Session{
				Client:           client,
				MaxAttempts:      tc.maxAttempts,
				SkipVerification: tc.skipVerify,
				RouteOracle:      disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) { return true, nil }),
				ACLOracle:        disambig.FuncACLOracle(func(disambig.ACLQuestion) (bool, error) { return true, nil }),
				Observer:         obs.SinkFunc(func(done *obs.Trace) { tr = done }),
			}
			intentText, target := paperPrompt, "ISP_OUT"
			s.Config = ios.MustParse(paperISPOut)
			if tc.acl {
				intentText, target = figure1ACLIntent, "EDGE"
				s.Config = ios.MustParse(figure1ACLBase)
			}
			res, err := s.Submit(ctx, intentText, target)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("Submit: %v", err)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("Submit error = %v, want %v", err, tc.wantErr)
			case tc.wantErrText != "" && err.Error() != tc.wantErrText:
				t.Errorf("Submit error = %q, want %q", err, tc.wantErrText)
			case tc.wantErr == nil && res.Attempts != len(tc.wantAttempts):
				t.Errorf("Attempts = %d, want %d", res.Attempts, len(tc.wantAttempts))
			}
			if got := s.Stats(); got != tc.wantStats {
				t.Errorf("Stats = %+v, want %+v", got, tc.wantStats)
			}

			// Each retry replays the conversation so far: the intent, then
			// per rejected attempt the model's output and a user turn with
			// the verifier's feedback above the restated intent.
			if len(client.requests) != len(tc.wantAttempts) {
				t.Fatalf("%d synthesis calls, want %d", len(client.requests), len(tc.wantAttempts))
			}
			// The prompt store's few-shot examples come first and stay put.
			turns := []llm.Message{{Role: llm.RoleUser, Content: intentText}}
			shots := len(client.requests[0]) - 1
			for i, msgs := range client.requests {
				if len(msgs) != shots+len(turns) || !reflect.DeepEqual(msgs[shots:], turns) {
					t.Errorf("attempt %d messages:\n got %q\nwant %q after %d few-shot turns", i+1, msgs, turns, shots)
				}
				if i < len(tc.script) {
					turns = append(turns,
						llm.Message{Role: llm.RoleAssistant, Content: tc.script[i]},
						llm.Message{Role: llm.RoleUser, Content: tc.wantAttempts[i].feedback + llm.FeedbackIntentMarker + intentText})
				}
			}

			if tr == nil {
				t.Fatal("no trace delivered")
			}
			for i, want := range tc.wantAttempts {
				asp := tr.Find(fmt.Sprintf("synthesize-attempt-%d", i+1))
				if asp == nil {
					t.Fatalf("attempt %d: no span", i+1)
				}
				fb, _ := asp.Attr("fault-feedback")
				if fb.Str != want.feedback {
					t.Errorf("attempt %d fault-feedback:\n got %q\nwant %q", i+1, fb.Str, want.feedback)
				}
				v, _ := asp.Attr("verified")
				if v.Bool != want.verified {
					t.Errorf("attempt %d verified = %v, want %v", i+1, v.Bool, want.verified)
				}
				violations := int64(-1)
				for _, c := range asp.Children {
					if c.Name == "verify" {
						a, _ := c.Attr("violations")
						violations = a.Int
					}
				}
				if violations != want.violations {
					t.Errorf("attempt %d violations = %d, want %d", i+1, violations, want.violations)
				}
			}
			if extra := tr.Find(fmt.Sprintf("synthesize-attempt-%d", len(tc.wantAttempts)+1)); extra != nil {
				t.Errorf("unexpected span %s", extra.Name)
			}
			if a, _ := tr.Root.Attr("attempts"); tc.wantErr == nil && a.Int != int64(len(tc.wantAttempts)) {
				t.Errorf("root attempts = %d, want %d", a.Int, len(tc.wantAttempts))
			}
			punted, _ := tr.Root.Attr("punted")
			if punted.Bool != (tc.wantErr == ErrPunt) {
				t.Errorf("punted = %v", punted.Bool)
			}
		})
	}
}
