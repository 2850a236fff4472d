// Package clarify is the end-to-end workflow engine of Figure 1: classify
// the user's intent, retrieve prompts, synthesize a snippet with the LLM,
// extract and verify a behavioural specification, iterate on verification
// feedback, then disambiguate the insertion point and update the
// configuration.
package clarify

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/intent"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/spec"
	"github.com/clarifynet/clarify/symbolic"
)

// DefaultMaxAttempts is the synthesis retry threshold before punting to the
// user (Figure 1, step 5).
const DefaultMaxAttempts = 3

// ErrPunt is returned when synthesis keeps failing verification and the tool
// gives up, per the paper: "we reach a threshold and punt to the user who
// starts over or provides more information."
var ErrPunt = errors.New("clarify: synthesis failed verification repeatedly; please rephrase or refine the intent")

// Session drives incremental updates against one configuration.
type Session struct {
	// Client is the language model; use llm.NewSimLLM() offline.
	Client llm.Client
	// Store is the prompt database; nil selects the built-in store.
	Store *llm.PromptStore
	// Config is the configuration being updated; Submit replaces it on
	// success. It is never mutated in place. Submit reads and writes this
	// field under the session mutex; concurrent callers should use
	// CurrentConfig / SetConfig rather than touching it directly.
	Config *ios.Config
	// RouteOracle and ACLOracle answer disambiguation questions.
	RouteOracle disambig.RouteOracle
	ACLOracle   disambig.ACLOracle
	// MaxAttempts bounds synthesis retries; 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// SkipVerification disables the verifier (ablation only).
	SkipVerification bool
	// Strategy selects the disambiguation algorithm (default binary search).
	Strategy disambig.Strategy
	// EnableReuse caches verified snippets by intent text: repeated intents
	// (the paper's "some route-maps were reused" case) skip every LLM call
	// and go straight to disambiguation.
	EnableReuse bool
	// SpaceCache, when non-nil, reuses symbolic route universes across
	// verification and disambiguation calls whose regex/community inputs are
	// unchanged (the steady state for repeated updates to one config). It is
	// safe to share one cache across many sessions.
	SpaceCache *symbolic.SpaceCache
	// Trace, when non-nil, receives a line per pipeline step (classification
	// outcome, synthesis attempts, verification feedback, disambiguation
	// summary) — the workflow's legacy observability hook, preserved as a
	// live rendering of the span tree's Logf events.
	Trace io.Writer
	// Observer, when non-nil, receives the completed obs.Trace for every
	// Submit call, successful or not. When Observer, Trace, and Journal are
	// all nil no spans are created at all: every stage runs against a nil
	// *obs.Span, whose methods are allocation-free no-ops.
	Observer obs.Sink
	// Journal, when non-nil, appends one flight-recorder record per Submit
	// call — intent, config snapshot and fingerprint, oracle transcript,
	// SimLLM fault plan, config diff, and the full span tree — durable raw
	// material for postmortems and deterministic replay (cmd/clarify-replay).
	// Journaling forces span collection even with Observer and Trace nil.
	Journal *journal.Journal
	// JournalSession labels this session's journal records (e.g. the daemon
	// session ID); empty is fine for single-session CLIs.
	JournalSession string

	mu    sync.Mutex
	stats Stats
	reuse map[string]*reuseEntry
}

// reuseEntry is one cached verified synthesis.
type reuseEntry struct {
	kind        intent.Kind
	snippetText string
	specJSON    string
	snippet     *ios.Config
	name        string
}

// Stats aggregates the counters reported in the paper's Figure 4. The JSON
// tags are the wire form used by the clarifyd /metrics and /sessions
// endpoints.
type Stats struct {
	// LLMCalls counts completions requested (classification + synthesis +
	// spec extraction + retries).
	LLMCalls int `json:"llmCalls"`
	// Disambiguations counts questions answered by the user.
	Disambiguations int `json:"disambiguations"`
	// Retries counts synthesis attempts beyond the first.
	Retries int `json:"retries"`
	// Punts counts updates abandoned at the retry threshold.
	Punts int `json:"punts"`
	// Updates counts successful insertions.
	Updates int `json:"updates"`
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RestoreStats seeds the session counters from externalized state (session
// snapshot/restore); subsequent updates accumulate on top, so a session's
// lifetime totals survive a daemon handoff.
func (s *Session) RestoreStats(st Stats) {
	s.mu.Lock()
	s.stats = st
	s.mu.Unlock()
}

// UpdateResult reports one successful incremental update.
type UpdateResult struct {
	Kind intent.Kind
	// SnippetText is the final verified LLM output.
	SnippetText string
	// SpecJSON is the behavioural specification shown to the user.
	SpecJSON string
	// Attempts is the number of synthesis calls used.
	Attempts int
	// RouteInsert / ACLInsert carry the disambiguation outcome.
	RouteInsert *disambig.RouteResult
	ACLInsert   *disambig.ACLResult
	// Config is the updated configuration (also stored on the session).
	Config *ios.Config
}

// CurrentConfig returns the session's configuration under the session mutex.
func (s *Session) CurrentConfig() *ios.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Config
}

// SetConfig replaces the session's configuration under the session mutex.
func (s *Session) SetConfig(cfg *ios.Config) {
	s.mu.Lock()
	s.Config = cfg
	s.mu.Unlock()
}

func (s *Session) store() *llm.PromptStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Store == nil {
		s.Store = llm.NewPromptStore()
	}
	return s.Store
}

func (s *Session) maxAttempts() int {
	if s.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return s.MaxAttempts
}

// beginTrace starts the span tree for one Submit call, or returns nil when
// observability is disabled (Observer, Trace, and Journal all nil) — every
// obs.Span method no-ops on a nil receiver, so the disabled pipeline pays
// nothing. When ctx carries a propagated W3C trace context (extracted from a
// clarify-lb or clarify -remote traceparent header), the trace adopts the
// fleet trace ID and records the caller's span as its remote parent, so the
// update tree stitches under the upstream proxy span.
func (s *Session) beginTrace(ctx context.Context) *obs.Trace {
	if s.Observer == nil && s.Trace == nil && s.Journal == nil {
		return nil
	}
	var t *obs.Trace
	if tp, ok := obs.TraceParentFromContext(ctx); ok {
		t = obs.NewTraceWith("update", tp)
	} else {
		t = obs.NewTrace("update")
	}
	t.LineWriter = s.Trace
	t.LinePrefix = "clarify: "
	return t
}

// endTrace closes the trace, stamps a terminal error if any, and hands the
// finished tree to the Observer. Safe on a nil trace.
func (s *Session) endTrace(t *obs.Trace, errp *error) {
	if t == nil {
		return
	}
	if *errp != nil {
		t.Root.SetStr("error", (*errp).Error())
	}
	t.Finish()
	if s.Observer != nil {
		s.Observer.TraceDone(t)
	}
}

// complete issues one LLM call, charging its latency to sp and exposing sp
// through the context so transport-level retries can annotate it.
func (s *Session) complete(ctx context.Context, sp *obs.Span, req llm.Request) (llm.Response, error) {
	s.mu.Lock()
	s.stats.LLMCalls++
	s.mu.Unlock()
	if sp == nil {
		return s.Client.Complete(ctx, req)
	}
	ctx = obs.ContextWithSpan(ctx, sp)
	start := time.Now()
	resp, err := s.Client.Complete(ctx, req)
	sp.SetDur("llm-ms", time.Since(start))
	return resp, err
}

// Submit runs the full pipeline for one natural-language intent against the
// named route-map or ACL in the session's configuration. Submit is safe for
// concurrent use: each call works against a snapshot of the configuration
// taken at entry and installs its result when it completes (last writer
// wins, as with any concurrent updates against one config).
func (s *Session) Submit(ctx context.Context, intentText, targetName string) (res *UpdateResult, err error) {
	cfg := s.CurrentConfig()
	if cfg == nil {
		return nil, fmt.Errorf("clarify: session has no configuration")
	}
	tr := s.beginTrace(ctx)
	// The oracles the pipeline will consult for this update. When journaling,
	// wrap them so every answered question lands in the record's transcript —
	// the transcript is what lets clarify-replay re-run the update without an
	// operator. Defers run LIFO: endTrace (registered last) finishes the span
	// tree first, then endJournal records it.
	routeOracle, aclOracle := s.RouteOracle, s.ACLOracle
	if s.Journal != nil {
		rec := &disambig.Transcript{Route: routeOracle, ACL: aclOracle}
		routeOracle, aclOracle = rec, rec
		defer func() { s.endJournal(ctx, tr, cfg, intentText, targetName, rec, res, err) }()
	}
	defer s.endTrace(tr, &err)
	var root *obs.Span
	if tr != nil {
		root = tr.Root
		root.SetStr("target", targetName)
	}
	if s.EnableReuse {
		s.mu.Lock()
		entry := s.reuse[intentText]
		s.mu.Unlock()
		if entry != nil {
			root.Logf("reusing verified snippet for identical intent (0 LLM calls)")
			root.SetBool("reused", true)
			switch entry.kind {
			case intent.KindRouteMap:
				return s.insertRouteSnippet(root, cfg, entry.snippet, entry.name, targetName, entry.snippetText, entry.specJSON, 0, routeOracle)
			case intent.KindACL:
				return s.insertACLSnippet(root, cfg, entry.snippet, entry.name, targetName, entry.snippetText, entry.specJSON, 0, aclOracle)
			}
		}
	}
	// Step 1: classification call.
	csp := root.Child("classify")
	resp, err := s.complete(ctx, csp, s.store().BuildRequest(llm.TaskClassify,
		llm.Message{Role: llm.RoleUser, Content: intentText}))
	if err != nil {
		csp.End()
		return nil, fmt.Errorf("clarify: classification: %w", err)
	}
	kind := strings.TrimSpace(resp.Content)
	csp.SetStr("kind", kind)
	csp.End()
	root.Logf("classified intent as %s", kind)
	switch kind {
	case "acl":
		return s.submitACL(ctx, root, cfg, intentText, targetName, aclOracle)
	case "route-map":
		return s.submitRouteMap(ctx, root, cfg, intentText, targetName, routeOracle)
	default:
		return nil, fmt.Errorf("clarify: classifier returned %q", kind)
	}
}

// endJournal assembles and appends the flight-recorder record for one Submit
// call. It runs after endTrace, so tr is finished and carries the terminal
// error attribute; append failures are counted by the journal itself rather
// than failing the update.
func (s *Session) endJournal(ctx context.Context, tr *obs.Trace, base *ios.Config, intentText, targetName string, rec *disambig.Transcript, res *UpdateResult, err error) {
	baseText := base.Print()
	r := &journal.Record{
		Time:              time.Now(),
		Session:           s.JournalSession,
		Intent:            intentText,
		Target:            targetName,
		BaseConfig:        baseText,
		ConfigFingerprint: symbolic.Fingerprint(base),
		MaxAttempts:       s.MaxAttempts,
		SkipVerification:  s.SkipVerification,
		Answers:           rec.Answers(),
		Degraded:          resilience.FlagsFromContext(ctx).Degraded(),
		Trace:             tr,
	}
	if tr != nil {
		r.TraceID = tr.ID
		r.DurationMs = float64(tr.Duration()) / float64(time.Millisecond)
		if a, ok := tr.Root.Attr("reused"); ok {
			r.Reused = a.Bool
		}
		r.SimFaults = simFaults(tr)
	}
	if err != nil {
		r.Error = err.Error()
	}
	if res != nil {
		r.Attempts = res.Attempts
		if res.RouteInsert != nil {
			r.Ambiguity = res.RouteInsert.Ambiguity
		}
		if res.ACLInsert != nil {
			r.Ambiguity = res.ACLInsert.Ambiguity
		}
		if res.Config != nil {
			r.FinalConfig = res.Config.Print()
			r.ConfigDiff = journal.Diff(baseText, r.FinalConfig)
		}
	}
	_ = s.Journal.Append(r)
}

// simFaults recovers the SimLLM fault plan an update consumed from its span
// tree: synthesis-attempt spans carry a "sim-fault" attribute for injected
// faults and none for clean calls. Walk order is depth-first, i.e. call
// order. Updates served by a non-simulated LLM yield all-"none" plans, which
// are reported as nil (no plan to re-seed).
func simFaults(tr *obs.Trace) []string {
	var faults []string
	injected := false
	tr.Walk(func(sp *obs.Span, _ int) {
		if obs.CanonicalStage(sp.Name) != "synthesize-attempt" {
			return
		}
		if a, ok := sp.Attr("sim-fault"); ok {
			faults = append(faults, a.Str)
			injected = true
		} else {
			faults = append(faults, "none")
		}
	})
	if !injected {
		return nil
	}
	return faults
}

// submitRouteMap is the route-map pipeline: synthesize → spec → verify loop
// → disambiguate. cfg is the configuration snapshot the update applies to;
// oracle is the (possibly journal-recording) disambiguation oracle for this
// update.
func (s *Session) submitRouteMap(ctx context.Context, root *obs.Span, cfg *ios.Config, intentText, mapName string, oracle disambig.RouteOracle) (*UpdateResult, error) {
	store := s.store()

	// Step 3 (second half): one spec-extraction call; the spec is stable
	// across retries because it is derived from the unchanged intent.
	ssp := root.Child("spec-extract")
	specResp, err := s.complete(ctx, ssp, store.BuildRequest(llm.TaskSpecRouteMap,
		llm.Message{Role: llm.RoleUser, Content: intentText}))
	ssp.End()
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction: %w", err)
	}
	rmSpec, err := spec.ParseRouteMapSpec([]byte(specResp.Content))
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction produced invalid JSON: %w", err)
	}

	turns := []llm.Message{{Role: llm.RoleUser, Content: intentText}}
	var snippet *ios.Config
	var snippetMap, snippetText string
	attempts := 0
	for {
		// The per-update deadline budget must stop the verify-and-retry loop
		// between attempts, not just inside LLM calls — a wedged update can
		// otherwise hold a worker across many local retries.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("clarify: update cancelled: %w", err)
		}
		if attempts >= s.maxAttempts() {
			s.mu.Lock()
			s.stats.Punts++
			s.mu.Unlock()
			root.SetBool("punted", true)
			return nil, ErrPunt
		}
		attempts++
		if attempts > 1 {
			s.mu.Lock()
			s.stats.Retries++
			s.mu.Unlock()
		}
		asp := root.ChildN("synthesize-attempt", attempts)
		asp.SetInt("attempt", int64(attempts))
		resp, err := s.complete(ctx, asp, store.BuildRequest(llm.TaskSynthRouteMap, turns...))
		if err != nil {
			asp.End()
			return nil, fmt.Errorf("clarify: synthesis: %w", err)
		}
		snippetText = resp.Content
		feedback := ""
		psp := asp.Child("parse")
		parsed, perr := ios.Parse(snippetText)
		psp.End()
		if perr != nil {
			feedback = fmt.Sprintf("The previous output was not valid Cisco IOS syntax: %v.", perr)
		} else if name, err2 := soleRouteMap(parsed); err2 != nil {
			feedback = fmt.Sprintf("The previous output was malformed: %v.", err2)
		} else if err3 := parsed.Validate(); err3 != nil {
			feedback = fmt.Sprintf("The previous output references undefined data structures: %v.", err3)
		} else if !s.SkipVerification {
			vsp := asp.Child("verify")
			violations, err4 := spec.VerifyRouteMapSnippetTraced(s.SpaceCache, parsed, name, rmSpec, vsp)
			if err4 != nil {
				vsp.End()
				asp.End()
				return nil, fmt.Errorf("clarify: verification: %w", err4)
			}
			vsp.SetInt("violations", int64(len(violations)))
			vsp.End()
			if len(violations) > 0 {
				feedback = "The previous stanza does not meet the specification: " + describeViolations(violations)
			} else {
				snippet, snippetMap = parsed, name
			}
		} else {
			snippet, snippetMap = parsed, name
		}
		if snippet != nil {
			asp.SetBool("verified", true)
			asp.End()
			root.Logf("attempt %d verified", attempts)
			break
		}
		asp.SetStr("fault-feedback", feedback)
		asp.End()
		root.Logf("attempt %d rejected: %s", attempts, feedback)
		turns = append(turns,
			llm.Message{Role: llm.RoleAssistant, Content: snippetText},
			llm.Message{Role: llm.RoleUser, Content: feedback + llm.FeedbackIntentMarker + intentText},
		)
	}

	if s.EnableReuse {
		s.mu.Lock()
		if s.reuse == nil {
			s.reuse = map[string]*reuseEntry{}
		}
		s.reuse[intentText] = &reuseEntry{
			kind: intent.KindRouteMap, snippetText: snippetText,
			specJSON: specResp.Content, snippet: snippet, name: snippetMap,
		}
		s.mu.Unlock()
	}
	root.SetInt("attempts", int64(attempts))
	return s.insertRouteSnippet(root, cfg, snippet, snippetMap, mapName, snippetText, specResp.Content, attempts, oracle)
}

// insertRouteSnippet is step 6 for route maps: disambiguation and insertion
// of an already-verified snippet into the cfg snapshot.
func (s *Session) insertRouteSnippet(root *obs.Span, cfg, snippet *ios.Config, snippetMap, mapName, snippetText, specJSON string, attempts int, oracle disambig.RouteOracle) (*UpdateResult, error) {
	dsp := root.Child("disambiguate")
	res, err := disambig.InsertRouteMapStanzaStrategyTraced(s.Strategy, s.SpaceCache, cfg, mapName, snippet, snippetMap, oracle, dsp)
	if err != nil {
		dsp.End()
		return nil, err
	}
	dsp.SetInt("overlaps", int64(len(res.Overlaps)))
	dsp.SetInt("questions", int64(len(res.Questions)))
	dsp.SetInt("position", int64(res.Position))
	dsp.End()
	root.Logf("disambiguated %s: %d distinguishing overlap(s), %d question(s), inserted at position %d",
		mapName, len(res.Overlaps), len(res.Questions), res.Position)
	if led := res.Ambiguity; led != nil {
		root.Logf("ambiguity: %.1f bits before, %.1f resolved by %d question(s), %.1f residual",
			led.InitialBits, led.ResolvedBits(), led.QuestionCount(), led.ResidualBits)
	}
	s.mu.Lock()
	s.stats.Disambiguations += len(res.Questions)
	s.stats.Updates++
	s.Config = res.Config
	s.mu.Unlock()
	return &UpdateResult{
		Kind:        intent.KindRouteMap,
		SnippetText: snippetText,
		SpecJSON:    specJSON,
		Attempts:    attempts,
		RouteInsert: res,
		Config:      res.Config,
	}, nil
}

// submitACL is the ACL pipeline. cfg is the configuration snapshot the
// update applies to; oracle is this update's disambiguation oracle.
func (s *Session) submitACL(ctx context.Context, root *obs.Span, cfg *ios.Config, intentText, aclName string, oracle disambig.ACLOracle) (*UpdateResult, error) {
	store := s.store()
	ssp := root.Child("spec-extract")
	specResp, err := s.complete(ctx, ssp, store.BuildRequest(llm.TaskSpecACL,
		llm.Message{Role: llm.RoleUser, Content: intentText}))
	ssp.End()
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction: %w", err)
	}
	aclSpec, err := spec.ParseACLSpec([]byte(specResp.Content))
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction produced invalid JSON: %w", err)
	}

	turns := []llm.Message{{Role: llm.RoleUser, Content: intentText}}
	var snippet *ios.Config
	var snippetACL, snippetText string
	attempts := 0
	for {
		// See submitRouteMap: honor the per-update deadline between attempts.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("clarify: update cancelled: %w", err)
		}
		if attempts >= s.maxAttempts() {
			s.mu.Lock()
			s.stats.Punts++
			s.mu.Unlock()
			root.SetBool("punted", true)
			return nil, ErrPunt
		}
		attempts++
		if attempts > 1 {
			s.mu.Lock()
			s.stats.Retries++
			s.mu.Unlock()
		}
		asp := root.ChildN("synthesize-attempt", attempts)
		asp.SetInt("attempt", int64(attempts))
		resp, err := s.complete(ctx, asp, store.BuildRequest(llm.TaskSynthACL, turns...))
		if err != nil {
			asp.End()
			return nil, fmt.Errorf("clarify: synthesis: %w", err)
		}
		snippetText = resp.Content
		feedback := ""
		psp := asp.Child("parse")
		parsed, perr := ios.Parse(snippetText)
		psp.End()
		if perr != nil {
			feedback = fmt.Sprintf("The previous output was not valid Cisco IOS syntax: %v.", perr)
		} else if name, err2 := soleACL(parsed); err2 != nil {
			feedback = fmt.Sprintf("The previous output was malformed: %v.", err2)
		} else if !s.SkipVerification {
			vsp := asp.Child("verify")
			violations, err3 := spec.VerifyACLSnippetTraced(parsed, name, aclSpec, vsp)
			if err3 != nil {
				vsp.End()
				asp.End()
				return nil, fmt.Errorf("clarify: verification: %w", err3)
			}
			vsp.SetInt("violations", int64(len(violations)))
			vsp.End()
			if len(violations) > 0 {
				feedback = "The previous entry does not meet the specification: " + describeViolations(violations)
			} else {
				snippet, snippetACL = parsed, name
			}
		} else {
			snippet, snippetACL = parsed, name
		}
		if snippet != nil {
			asp.SetBool("verified", true)
			asp.End()
			root.Logf("attempt %d verified", attempts)
			break
		}
		asp.SetStr("fault-feedback", feedback)
		asp.End()
		root.Logf("attempt %d rejected: %s", attempts, feedback)
		turns = append(turns,
			llm.Message{Role: llm.RoleAssistant, Content: snippetText},
			llm.Message{Role: llm.RoleUser, Content: feedback + llm.FeedbackIntentMarker + intentText},
		)
	}

	if s.EnableReuse {
		s.mu.Lock()
		if s.reuse == nil {
			s.reuse = map[string]*reuseEntry{}
		}
		s.reuse[intentText] = &reuseEntry{
			kind: intent.KindACL, snippetText: snippetText,
			specJSON: specResp.Content, snippet: snippet, name: snippetACL,
		}
		s.mu.Unlock()
	}
	root.SetInt("attempts", int64(attempts))
	return s.insertACLSnippet(root, cfg, snippet, snippetACL, aclName, snippetText, specResp.Content, attempts, oracle)
}

// insertACLSnippet is step 6 for ACLs, against the cfg snapshot. (ACL spaces
// are fixed-shape and cheap to build, so no symbolic cache is involved.)
func (s *Session) insertACLSnippet(root *obs.Span, cfg, snippet *ios.Config, snippetACL, aclName, snippetText, specJSON string, attempts int, oracle disambig.ACLOracle) (*UpdateResult, error) {
	dsp := root.Child("disambiguate")
	res, err := disambig.InsertACLEntryTraced(cfg, aclName, snippet, snippetACL, oracle, dsp)
	if err != nil {
		dsp.End()
		return nil, err
	}
	dsp.SetInt("overlaps", int64(len(res.Overlaps)))
	dsp.SetInt("questions", int64(len(res.Questions)))
	dsp.SetInt("position", int64(res.Position))
	dsp.End()
	root.Logf("disambiguated %s: %d distinguishing overlap(s), %d question(s), inserted at position %d",
		aclName, len(res.Overlaps), len(res.Questions), res.Position)
	if led := res.Ambiguity; led != nil {
		root.Logf("ambiguity: %.1f bits before, %.1f resolved by %d question(s), %.1f residual",
			led.InitialBits, led.ResolvedBits(), led.QuestionCount(), led.ResidualBits)
	}
	s.mu.Lock()
	s.stats.Disambiguations += len(res.Questions)
	s.stats.Updates++
	s.Config = res.Config
	s.mu.Unlock()
	return &UpdateResult{
		Kind:        intent.KindACL,
		SnippetText: snippetText,
		SpecJSON:    specJSON,
		Attempts:    attempts,
		ACLInsert:   res,
		Config:      res.Config,
	}, nil
}

func soleRouteMap(cfg *ios.Config) (string, error) {
	if len(cfg.RouteMaps) != 1 {
		return "", fmt.Errorf("want exactly one route-map, got %d", len(cfg.RouteMaps))
	}
	var name string
	var rm *ios.RouteMap
	for name, rm = range cfg.RouteMaps {
	}
	if len(rm.Stanzas) != 1 {
		return "", fmt.Errorf("want exactly one stanza, got %d", len(rm.Stanzas))
	}
	return name, nil
}

func soleACL(cfg *ios.Config) (string, error) {
	if len(cfg.ACLs) != 1 {
		return "", fmt.Errorf("want exactly one access-list, got %d", len(cfg.ACLs))
	}
	var name string
	var acl *ios.ACL
	for name, acl = range cfg.ACLs {
	}
	if len(acl.Entries) != 1 {
		return "", fmt.Errorf("want exactly one entry, got %d", len(acl.Entries))
	}
	return name, nil
}

func describeViolations(vs []spec.Violation) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("[%s] %s", v.Kind, v.Details)
	}
	return strings.Join(parts, "; ")
}

// NewRouteMap starts an empty route-map in the session's configuration so
// incremental synthesis can build it from scratch (the §5 workflow).
func (s *Session) NewRouteMap(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := ios.NewConfig()
	if s.Config != nil {
		cfg = s.Config.Clone()
	}
	if _, exists := cfg.RouteMaps[name]; exists {
		return fmt.Errorf("clarify: route-map %q already exists", name)
	}
	cfg.AddRouteMap(name)
	s.Config = cfg
	return nil
}

// NewACL starts an empty ACL in the session's configuration.
func (s *Session) NewACL(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := ios.NewConfig()
	if s.Config != nil {
		cfg = s.Config.Clone()
	}
	if _, exists := cfg.ACLs[name]; exists {
		return fmt.Errorf("clarify: ACL %q already exists", name)
	}
	cfg.AddACL(name)
	s.Config = cfg
	return nil
}
