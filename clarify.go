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

	"github.com/clarifynet/clarify/ambiguity"
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
	// CurrentConfig rather than touching it directly.
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

// reuseEntry is one verified synthesis, cached for reuse when EnableReuse
// is set.
type reuseEntry struct {
	kind        *ruleKind
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
	// RouteInsert / ACLInsert carry the disambiguation outcome; Placement
	// reads the part that does not depend on the kind.
	RouteInsert *disambig.RouteResult
	ACLInsert   *disambig.ACLResult
	// Config is the updated configuration (also stored on the session).
	Config *ios.Config
}

// Placement returns the disambiguation outcome from whichever of
// RouteInsert and ACLInsert is set: the number of distinguishing overlaps,
// the number of questions asked, the insertion position, and the ambiguity
// ledger (nil when the update was not traced). It returns zeros and nil on
// a nil result.
func (r *UpdateResult) Placement() (overlaps, questions, position int, ledger *ambiguity.Ledger) {
	switch {
	case r == nil:
	case r.RouteInsert != nil:
		ri := r.RouteInsert
		return len(ri.Overlaps), len(ri.Questions), ri.Position, ri.Ambiguity
	case r.ACLInsert != nil:
		ai := r.ACLInsert
		return len(ai.Overlaps), len(ai.Questions), ai.Position, ai.Ambiguity
	}
	return 0, 0, 0, nil
}

// CurrentConfig returns the session's configuration under the session mutex.
func (s *Session) CurrentConfig() *ios.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Config
}

func (s *Session) store() *llm.PromptStore {
	if s.Store == nil {
		return llm.BuiltinPrompts()
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
// clarify -remote or clarify-lb traceparent header), the trace adopts its
// trace ID and records the caller's span as its remote parent.
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
			u, err := entry.kind.begin(s, entry.specJSON, cfg, targetName)
			if err != nil {
				return nil, err
			}
			return s.insert(root, u, entry, targetName, 0, routeOracle, aclOracle)
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
		return s.submit(ctx, root, cfg, &aclKind, intentText, targetName, routeOracle, aclOracle)
	case "route-map":
		return s.submit(ctx, root, cfg, &routeMapKind, intentText, targetName, routeOracle, aclOracle)
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
		_, _, _, r.Ambiguity = res.Placement()
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

// ruleKind is what Figure 1's loop needs to know about one kind of rule
// list. Everything else — spans, log lines, feedback wording, retries,
// counters — is shared.
type ruleKind struct {
	kind      intent.Kind
	specTask  llm.Task
	synthTask llm.Task
	// listNoun and ruleNoun name a list and one of its rules in the
	// feedback that rejects a malformed or spec-violating snippet.
	listNoun, ruleNoun string
	// lists reports how many lists of this kind cfg holds, and the name and
	// rule count of one of them.
	lists func(cfg *ios.Config) (n int, name string, rules int)
	// validate checks the snippet's references to other lists. Route maps
	// reference prefix, community and as-path lists; ACL snippets are not
	// checked.
	validate func(snippet *ios.Config) error
	// begin parses the extracted spec and starts the update of target in
	// cfg.
	begin func(s *Session, specJSON string, cfg *ios.Config, target string) (kindUpdate, error)
}

// kindUpdate is one update of a rule kind: its spec, and the one symbolic
// space its verification and disambiguation share.
type kindUpdate interface {
	// verify checks one candidate snippet against the spec. Its errors end
	// the update as they are.
	verify(snippet *ios.Config, name string, sp *obs.Span) ([]spec.Violation, error)
	// disambiguate runs §4's insertion of the snippet that passed verify,
	// or of a reused one, or of one accepted with verification skipped, and
	// returns a result with the outcome field and Config set.
	disambiguate(snippet *ios.Config, name string, ro disambig.RouteOracle, ao disambig.ACLOracle, sp *obs.Span) (*UpdateResult, error)
}

// verificationError wraps an error of the spec check.
func verificationError(err error) error { return fmt.Errorf("clarify: verification: %w", err) }

var routeMapKind = ruleKind{
	kind:      intent.KindRouteMap,
	specTask:  llm.TaskSpecRouteMap,
	synthTask: llm.TaskSynthRouteMap,
	listNoun:  "route-map",
	ruleNoun:  "stanza",
	lists: func(cfg *ios.Config) (int, string, int) {
		for name, rm := range cfg.RouteMaps {
			return len(cfg.RouteMaps), name, len(rm.Stanzas)
		}
		return 0, "", 0
	},
	validate: (*ios.Config).Validate,
	begin: func(s *Session, specJSON string, cfg *ios.Config, target string) (kindUpdate, error) {
		rs, err := spec.ParseRouteMapSpec([]byte(specJSON))
		if err != nil {
			return nil, err
		}
		return &routeUpdate{s: s, spec: rs, cfg: cfg, target: target}, nil
	},
}

// routeUpdate checks out one route space per attempt that reaches
// verification: disambiguation's universe over cfg with the snippet merged
// in, plus the spec's config appended last. A passing snippet's spec
// patterns accept the same routes as its own, so they split no atom and,
// coming last, reorder none: disambiguation probes in that space exactly as
// in one built without them, and releases it before its first question.
type routeUpdate struct {
	s      *Session
	spec   *spec.RouteMapSpec
	cfg    *ios.Config
	target string
	// in is the passing attempt's insertion, holding its space.
	in *disambig.RouteInsertion
}

func (u *routeUpdate) verify(snippet *ios.Config, name string, sp *obs.Span) ([]spec.Violation, error) {
	// Merging the snippet fails as disambiguation reports it: a missing
	// target map ends the update with disambiguation's error.
	in, err := disambig.PrepareRouteMapStanza(u.s.SpaceCache, u.cfg, u.target, snippet, name)
	if err != nil {
		return nil, err
	}
	violations, err := spec.VerifyRouteMapSnippetIn(func(specCfg *ios.Config) (*symbolic.RouteSpace, error) {
		return in.Acquire(specCfg)
	}, snippet, name, u.spec, sp)
	if err != nil || len(violations) > 0 {
		in.Release()
		if err != nil {
			return nil, verificationError(err)
		}
		return violations, nil
	}
	u.in = in
	return nil, nil
}

func (u *routeUpdate) disambiguate(snippet *ios.Config, name string, ro disambig.RouteOracle, _ disambig.ACLOracle, sp *obs.Span) (*UpdateResult, error) {
	in := u.in
	if in == nil {
		// A reused snippet, or one accepted with verification skipped. A
		// reused one passed verification when it was cached, so its space
		// includes the spec's config as that update's did, and is found in
		// the cache.
		var err error
		if in, err = disambig.PrepareRouteMapStanza(u.s.SpaceCache, u.cfg, u.target, snippet, name); err != nil {
			return nil, err
		}
		if !u.s.SkipVerification {
			specCfg, err := u.spec.VerificationConfig()
			if err == nil {
				_, err = in.Acquire(specCfg)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	res, err := in.Insert(u.s.Strategy, ro, sp)
	if err != nil {
		return nil, err
	}
	return &UpdateResult{RouteInsert: res, Config: res.Config}, nil
}

var aclKind = ruleKind{
	kind:      intent.KindACL,
	specTask:  llm.TaskSpecACL,
	synthTask: llm.TaskSynthACL,
	listNoun:  "access-list",
	ruleNoun:  "entry",
	lists: func(cfg *ios.Config) (int, string, int) {
		for name, acl := range cfg.ACLs {
			return len(cfg.ACLs), name, len(acl.Entries)
		}
		return 0, "", 0
	},
	validate: func(*ios.Config) error { return nil },
	begin: func(_ *Session, specJSON string, cfg *ios.Config, target string) (kindUpdate, error) {
		as, err := spec.ParseACLSpec([]byte(specJSON))
		if err != nil {
			return nil, err
		}
		return &aclUpdate{spec: as, cfg: cfg, target: target, space: symbolic.NewACLSpace()}, nil
	},
}

// aclUpdate builds one packet space for the update and shares it between
// verification and disambiguation, which releases it. An update that punts
// or fails before disambiguation leaves it to the collector.
type aclUpdate struct {
	spec   *spec.ACLSpec
	cfg    *ios.Config
	target string
	space  *symbolic.ACLSpace
}

func (u *aclUpdate) verify(snippet *ios.Config, name string, sp *obs.Span) ([]spec.Violation, error) {
	violations, err := spec.VerifyACLSnippetTraced(u.space, snippet, name, u.spec, sp)
	if err != nil {
		return nil, verificationError(err)
	}
	return violations, nil
}

func (u *aclUpdate) disambiguate(snippet *ios.Config, name string, _ disambig.RouteOracle, ao disambig.ACLOracle, sp *obs.Span) (*UpdateResult, error) {
	res, err := disambig.InsertACLEntryTraced(u.space, u.cfg, u.target, snippet, name, ao, sp)
	u.space.Release()
	if err != nil {
		return nil, err
	}
	return &UpdateResult{ACLInsert: res, Config: res.Config}, nil
}

// sole names the snippet's one list of this kind, which must hold exactly
// one rule.
func (k *ruleKind) sole(snippet *ios.Config) (string, error) {
	n, name, rules := k.lists(snippet)
	if n != 1 {
		return "", fmt.Errorf("want exactly one %s, got %d", k.listNoun, n)
	}
	if rules != 1 {
		return "", fmt.Errorf("want exactly one %s, got %d", k.ruleNoun, rules)
	}
	return name, nil
}

// submit is Figure 1's loop for one kind: extract the spec, then
// synthesize, parse, shape-check and verify until an attempt passes or the
// retry threshold punts, then disambiguate. cfg is the configuration
// snapshot the update applies to; ro and ao are this update's (possibly
// journal-recording) disambiguation oracles.
func (s *Session) submit(ctx context.Context, root *obs.Span, cfg *ios.Config, k *ruleKind, intentText, target string, ro disambig.RouteOracle, ao disambig.ACLOracle) (*UpdateResult, error) {
	store := s.store()

	// Step 3 (second half): one spec-extraction call; the spec is stable
	// across retries because it is derived from the unchanged intent.
	ssp := root.Child("spec-extract")
	specResp, err := s.complete(ctx, ssp, store.BuildRequest(k.specTask,
		llm.Message{Role: llm.RoleUser, Content: intentText}))
	ssp.End()
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction: %w", err)
	}
	u, err := k.begin(s, specResp.Content, cfg, target)
	if err != nil {
		return nil, fmt.Errorf("clarify: spec extraction produced invalid JSON: %w", err)
	}

	turns := []llm.Message{{Role: llm.RoleUser, Content: intentText}}
	var snippet *ios.Config
	var snippetList, snippetText string
	attempts := 0
	for {
		// The per-update deadline budget must stop the verify-and-retry loop
		// between attempts, not just inside LLM calls — a wedged update can
		// otherwise hold a worker across many local retries.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("clarify: update cancelled: %w", context.Cause(ctx))
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
		resp, err := s.complete(ctx, asp, store.BuildRequest(k.synthTask, turns...))
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
		} else if name, err2 := k.sole(parsed); err2 != nil {
			feedback = fmt.Sprintf("The previous output was malformed: %v.", err2)
		} else if err3 := k.validate(parsed); err3 != nil {
			feedback = fmt.Sprintf("The previous output references undefined data structures: %v.", err3)
		} else if !s.SkipVerification {
			vsp := asp.Child("verify")
			violations, err4 := u.verify(parsed, name, vsp)
			if err4 != nil {
				vsp.End()
				asp.End()
				return nil, err4
			}
			vsp.SetInt("violations", int64(len(violations)))
			vsp.End()
			if len(violations) > 0 {
				feedback = "The previous " + k.ruleNoun + " does not meet the specification: " + describeViolations(violations)
			} else {
				snippet, snippetList = parsed, name
			}
		} else {
			snippet, snippetList = parsed, name
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

	v := reuseEntry{kind: k, snippetText: snippetText, specJSON: specResp.Content, snippet: snippet, name: snippetList}
	if s.EnableReuse {
		cached := v // a copy, so v itself stays off the heap
		s.mu.Lock()
		if s.reuse == nil {
			s.reuse = map[string]*reuseEntry{}
		}
		s.reuse[intentText] = &cached
		s.mu.Unlock()
	}
	root.SetInt("attempts", int64(attempts))
	return s.insert(root, u, &v, target, attempts, ro, ao)
}

// insert is step 6: disambiguation and insertion of an already-verified
// snippet into the configuration snapshot u was started on.
func (s *Session) insert(root *obs.Span, u kindUpdate, v *reuseEntry, target string, attempts int, ro disambig.RouteOracle, ao disambig.ACLOracle) (*UpdateResult, error) {
	dsp := root.Child("disambiguate")
	res, err := u.disambiguate(v.snippet, v.name, ro, ao, dsp)
	if err != nil {
		dsp.End()
		return nil, err
	}
	overlaps, questions, position, led := res.Placement()
	dsp.SetInt("overlaps", int64(overlaps))
	dsp.SetInt("questions", int64(questions))
	dsp.SetInt("position", int64(position))
	dsp.End()
	root.Logf("disambiguated %s: %d distinguishing overlap(s), %d question(s), inserted at position %d",
		target, overlaps, questions, position)
	if led != nil {
		root.Logf("ambiguity: %.1f bits before, %.1f resolved by %d question(s), %.1f residual",
			led.InitialBits, led.ResolvedBits(), led.QuestionCount(), led.ResidualBits)
	}
	s.mu.Lock()
	s.stats.Disambiguations += questions
	s.stats.Updates++
	s.Config = res.Config
	s.mu.Unlock()
	res.Kind = v.kind.kind
	res.SnippetText = v.snippetText
	res.SpecJSON = v.specJSON
	res.Attempts = attempts
	return res, nil
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
