package disambig

import (
	"fmt"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/policy"
)

// SimUser is the simulated operator: it holds the *target* configuration —
// the semantics the user actually intends, M′ in §4 — and answers every
// differential question by evaluating the target on the shown input. It
// stands in for the interactive operators the paper's prototype queries.
type SimUser struct {
	Target  *ios.Config
	MapName string
	ACLName string
	// Asked counts questions answered (the paper's "#Disambiguation").
	Asked int

	ev *policy.Evaluator // over Target, built on the first route question
}

// NewSimUserRouteMap builds a simulated user whose intent is the given
// route-map semantics.
func NewSimUserRouteMap(target *ios.Config, mapName string) *SimUser {
	return &SimUser{Target: target, MapName: mapName}
}

// NewSimUserACL builds a simulated user whose intent is the given ACL
// semantics.
func NewSimUserACL(target *ios.Config, aclName string) *SimUser {
	return &SimUser{Target: target, ACLName: aclName}
}

// ChooseRoute implements RouteOracle by consulting the target semantics.
func (u *SimUser) ChooseRoute(q RouteQuestion) (bool, error) {
	u.Asked++
	rm, ok := u.Target.RouteMaps[u.MapName]
	if !ok {
		return false, fmt.Errorf("disambig: simulated user has no route-map %q", u.MapName)
	}
	u.ev = targetEvaluator(u.ev, u.Target)
	want, err := u.ev.EvalRouteMap(rm, q.Input)
	if err != nil {
		return false, err
	}
	switch {
	case analysis.VerdictsEqual(want, q.NewVerdict):
		return true, nil
	case analysis.VerdictsEqual(want, q.OldVerdict):
		return false, nil
	default:
		return false, fmt.Errorf("disambig: simulated user's intent matches neither option for route %s", q.Input.Network)
	}
}

// targetEvaluator returns ev when it is already bound to target, and a new
// Evaluator over target otherwise, so a simulated user compiles its target's
// regexes once rather than once per question.
func targetEvaluator(ev *policy.Evaluator, target *ios.Config) *policy.Evaluator {
	if ev == nil || ev.Config() != target {
		return policy.NewEvaluator(target)
	}
	return ev
}

// ChooseACL implements ACLOracle by consulting the target semantics.
func (u *SimUser) ChooseACL(q ACLQuestion) (bool, error) {
	u.Asked++
	acl, ok := u.Target.ACLs[u.ACLName]
	if !ok {
		return false, fmt.Errorf("disambig: simulated user has no ACL %q", u.ACLName)
	}
	want := policy.EvalACL(acl, q.Input).Permit
	switch want {
	case q.NewPermit:
		return true, nil
	case q.OldPermit:
		return false, nil
	}
	return false, fmt.Errorf("disambig: simulated user's intent matches neither option for packet %s", q.Input)
}

// FuncRouteOracle adapts a function to RouteOracle (CLI glue, tests).
type FuncRouteOracle func(q RouteQuestion) (bool, error)

// ChooseRoute implements RouteOracle.
func (f FuncRouteOracle) ChooseRoute(q RouteQuestion) (bool, error) { return f(q) }

// FuncACLOracle adapts a function to ACLOracle.
type FuncACLOracle func(q ACLQuestion) (bool, error)

// ChooseACL implements ACLOracle.
func (f FuncACLOracle) ChooseACL(q ACLQuestion) (bool, error) { return f(q) }

// ACLQuestion is the packet-filter analogue of RouteQuestion.
type ACLQuestion struct {
	Input packet.Packet
	// NewPermit is the action if the new entry handles Input; OldPermit is
	// the current ACL's action.
	NewPermit bool
	OldPermit bool
	// ProbedEntry is the index of the overlapping entry being resolved.
	ProbedEntry int
}

// String renders the question in OPTION 1 / OPTION 2 style.
func (q ACLQuestion) String() string {
	return fmt.Sprintf("Input packet: %s\n\nOPTION 1 (new entry applies): %s\nOPTION 2 (existing behavior): %s",
		q.Input, actionWord(q.NewPermit), actionWord(q.OldPermit))
}

func actionWord(permit bool) string {
	if permit {
		return "permit"
	}
	return "deny"
}

// ACLOracle answers ACL disambiguation questions.
type ACLOracle interface {
	ChooseACL(q ACLQuestion) (preferNew bool, err error)
}
