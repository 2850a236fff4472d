// Package disambig implements the paper's core contribution: the
// disambiguator of Section 4. Given a verified configuration snippet and the
// existing route map or ACL it must be inserted into, the disambiguator
// locates the overlapping rules, binary-searches the candidate insertion
// gaps, and resolves each probe by showing the user a differential example —
// an input handled differently depending on placement — through an Oracle.
//
// The paper's formal model: a policy is a rule list S̄ with first-match
// semantics M(r) = argmin{ i | matches(r, S_i) }. Inserting S* must realize a
// new semantics M′ satisfying the three conditions of §4 (every input keeps
// its old handler or moves to S*; inputs moving to S* match S*; and movers
// are "later" than keepers among S*-matching inputs). Under those conditions
// a single insertion point realizes M′ and ⌈log₂(k+1)⌉ user questions locate
// it, where k is the number of overlapping rules.
//
// Two refinements over the paper's formalization, both behaviour-preserving:
// overlaps are computed against *first-match* regions (a rule shadowed on the
// whole S*-overlap is irrelevant to placement), and overlaps whose behaviour
// is observationally identical to S* on the shared region are skipped (the
// question would be unanswerable — both options identical).
package disambig

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/symbolic"
)

// maxProbes bounds concrete confirmation attempts per candidate region.
const maxProbes = 8

// RouteQuestion is one differential example shown to the user: the input
// route, the behaviour if the new stanza takes precedence (OPTION 1 in the
// paper's §2.2), and the current behaviour (OPTION 2).
type RouteQuestion struct {
	Input route.Route
	// NewVerdict is the behaviour when the new stanza handles Input.
	NewVerdict policy.RouteVerdict
	// OldVerdict is the existing route map's behaviour on Input.
	OldVerdict policy.RouteVerdict
	// ProbedStanza is the index (in the original map) of the overlapping
	// stanza whose priority relative to the new stanza is being resolved.
	ProbedStanza int
}

// String renders the question in the paper's OPTION 1 / OPTION 2 style.
func (q RouteQuestion) String() string {
	return fmt.Sprintf("Input route:\n%s\n\nOPTION 1 (new stanza applies):\n%s\nOPTION 2 (existing behavior):\n%s",
		q.Input, renderVerdict(q.NewVerdict), renderVerdict(q.OldVerdict))
}

func renderVerdict(v policy.RouteVerdict) string {
	if !v.Permit {
		return "ACTION: deny\n"
	}
	return "ACTION: permit\n" + v.Output.String() + "\n"
}

// RouteOracle answers route-map disambiguation questions. Implementations
// are the interactive CLI and the simulated user.
type RouteOracle interface {
	// ChooseRoute returns true when the user wants OPTION 1 (the new stanza
	// should handle the shown input).
	ChooseRoute(q RouteQuestion) (preferNew bool, err error)
}

// RouteResult reports a completed route-map insertion.
type RouteResult struct {
	// Config is the updated configuration (the input is never mutated).
	Config *ios.Config
	// Position is the stanza index at which the new stanza was inserted.
	Position int
	// Questions are the differential examples shown, in order.
	Questions []RouteQuestion
	// Overlaps are the indices of original stanzas whose first-match regions
	// intersect the new stanza distinguishably.
	Overlaps []int
	// Renames maps snippet ancillary-list names to their fresh names in the
	// merged configuration (Figure 2's D2/D3 renaming).
	Renames map[string]string
	// Ambiguity is the run's information-gain ledger: candidate-space bits
	// before the search, per question, and at accept. Nil when the run was
	// not traced (the ledger rides the observability path).
	Ambiguity *ambiguity.Ledger
}

// InsertRouteMapStanza runs the full §2.2/§4 flow: merge the snippet's
// ancillary lists under fresh names, locate the distinguishing overlaps,
// binary-search the insertion gap with oracle questions, and insert.
//
// snippet must contain exactly one route-map with exactly one stanza (the
// verified LLM output); orig must contain mapName.
func InsertRouteMapStanza(orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle) (*RouteResult, error) {
	return InsertRouteMapStanzaStrategyTraced(StrategyBinary, nil, orig, mapName, snippet, snippetMap, oracle, nil)
}

// confirmQuestion extracts a concrete differential example from a symbolic
// candidate region: the first of its models, decoded one at a time, on
// which the evaluator confirms that the two options genuinely differ.
func confirmQuestion(space *symbolic.RouteSpace, ev *policy.Evaluator, rm *ios.RouteMap, newStanza *ios.Stanza, stanzaIdx int, region bdd.Node) (RouteQuestion, bool, error) {
	if region == bdd.False {
		return RouteQuestion{}, false, nil
	}
	var q RouteQuestion
	found, err := space.WitnessWhere(region, maxProbes, func(w route.Route) (bool, error) {
		oldV, err := ev.EvalRouteMap(rm, w)
		if err != nil {
			return false, err
		}
		if oldV.Index != stanzaIdx {
			return false, nil // decode landed outside the first-match region; try next
		}
		newV := NewStanzaVerdict(newStanza, w)
		if analysis.VerdictsEqual(oldV, newV) {
			return false, nil // abstraction artifact: options identical
		}
		q = RouteQuestion{Input: w, NewVerdict: newV, OldVerdict: oldV, ProbedStanza: stanzaIdx}
		return true, nil
	})
	return q, found, err
}

// NewStanzaVerdict is the behaviour of the new stanza in isolation on r.
func NewStanzaVerdict(st *ios.Stanza, r route.Route) policy.RouteVerdict {
	v := policy.RouteVerdict{Permit: st.Permit, Output: r}
	if st.Permit {
		v.Output = policy.ApplySets(st.Sets, r)
	}
	return v
}

// freshListNames returns the next n unused names in the configuration's
// D<k> sequence, matching the paper's Figure 2 style (D0, D1 exist → two
// snippet lists become D2, D3). The sequence continues after the largest k
// a list is named D<k> for, with k written in canonical decimal (so D01,
// D+1 and D1x do not count), and skips names any namespace already uses.
func freshListNames(cfg *ios.Config, n int) []string {
	max := -1
	for _, name := range cfg.ListNames() {
		digits, ok := strings.CutPrefix(name, "D")
		if !ok {
			continue
		}
		if k, err := strconv.Atoi(digits); err == nil && k > max && strconv.Itoa(k) == digits {
			max = k
		}
	}
	out := make([]string, 0, n)
	for k := max + 1; len(out) < n; k++ {
		if name := "D" + strconv.Itoa(k); cfg.FreshName(name) == name {
			out = append(out, name)
		}
	}
	return out
}
