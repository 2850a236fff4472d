package evaltopo

import (
	"context"
	"testing"

	"github.com/clarifynet/clarify/llm"
)

func runEval(t *testing.T) ([]RouterStats, []PolicyCheck) {
	t.Helper()
	stats, checks, _, err := RunEvaluation(context.Background(), func() llm.Client { return llm.NewSimLLM() })
	if err != nil {
		t.Fatal(err)
	}
	return stats, checks
}

func TestFigure4Statistics(t *testing.T) {
	stats, _ := runEval(t)
	rows := map[string]RouterStats{}
	for _, s := range stats {
		rows[s.Router] = s
	}
	// Route-map counts match the paper exactly: M 4, R1 5, R2 5.
	if rows["M"].RouteMaps != 4 {
		t.Errorf("M route-maps = %d, want 4", rows["M"].RouteMaps)
	}
	if rows["R1"].RouteMaps != 5 || rows["R2"].RouteMaps != 5 {
		t.Errorf("R1/R2 route-maps = %d/%d, want 5/5", rows["R1"].RouteMaps, rows["R2"].RouteMaps)
	}
	// The paper's shape: the edge routers need more LLM calls and more
	// disambiguation questions than the border router, and R1 ≡ R2.
	if rows["R1"].LLMCalls <= rows["M"].LLMCalls {
		t.Errorf("R1 calls (%d) should exceed M calls (%d)", rows["R1"].LLMCalls, rows["M"].LLMCalls)
	}
	if rows["R1"].LLMCalls != rows["R2"].LLMCalls || rows["R1"].Disambiguations != rows["R2"].Disambiguations {
		t.Errorf("R1 and R2 should be symmetric: %+v vs %+v", rows["R1"], rows["R2"])
	}
	if rows["R1"].Disambiguations <= rows["M"].Disambiguations {
		t.Errorf("R1 questions (%d) should exceed M questions (%d)",
			rows["R1"].Disambiguations, rows["M"].Disambiguations)
	}
	// Every router needed at least one disambiguation (ambiguity is real).
	for _, r := range stats {
		if r.Disambiguations == 0 {
			t.Errorf("%s had no disambiguations", r.Router)
		}
	}
}

func TestGlobalPoliciesHold(t *testing.T) {
	_, checks := runEval(t)
	if len(checks) != 5 {
		t.Fatalf("got %d policy checks, want 5", len(checks))
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("policy %q violated: %s", c.Name, c.Details)
		}
	}
}

func TestTopologyDetails(t *testing.T) {
	_, _, st, err := RunEvaluation(context.Background(), func() llm.Client { return llm.NewSimLLM() })
	if err != nil {
		t.Fatal(err)
	}
	// M's service route carries local-pref 200 via R1 (policy 3 mechanism).
	best, ok := st.Best("M", ServicePrefix)
	if !ok || best.Route.LocalPref != 200 {
		t.Errorf("M's service route: %+v", best)
	}
	// ISPs carry the public prefix (the bogon filter is not vacuous).
	if !st.HasRoute("ISP1", PublicPrefix) || !st.HasRoute("ISP2", PublicPrefix) {
		t.Error("public prefix should reach both ISPs")
	}
	// ISPs do not carry the service or management prefixes.
	for _, isp := range []string{"ISP1", "ISP2"} {
		if st.HasRoute(isp, ServicePrefix) || st.HasRoute(isp, MgmtPrefix) {
			t.Errorf("%s carries internal prefixes", isp)
		}
	}
	// DC receives internet routes (the filters are not deny-everything).
	if !st.HasRoute("DC", ISP1Prefix) {
		t.Error("DC should receive ISP1's prefix")
	}
	// MGMT must not have the DC's copy of the reused prefix via any path.
	if st.LearnedVia("MGMT", ReusedPrefix, ASDC) {
		t.Error("reused prefix leaked from DC to MGMT")
	}
}

func TestIntentsAllParse(t *testing.T) {
	// Every evaluation intent must be within the restricted-English grammar.
	for _, in := range Intents() {
		sim := llm.NewSimLLM()
		req := llm.BuiltinPrompts().BuildRequest(llm.TaskSynthRouteMap,
			llm.Message{Role: llm.RoleUser, Content: in.Text})
		if _, err := sim.Complete(context.Background(), req); err != nil {
			t.Errorf("intent %q does not synthesize: %v", in.Text, err)
		}
	}
}

func TestSynthesisWithFaultyLLMStillConverges(t *testing.T) {
	// A fault on the first synthesis call of each router exercises the
	// verification loop inside the evaluation; the outcome is unchanged.
	stats, checks, _, err := RunEvaluation(context.Background(), func() llm.Client {
		return llm.NewSimLLM(llm.FaultWrongValue)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("policy %q violated under faulty LLM: %s", c.Name, c.Details)
		}
	}
	for _, s := range stats {
		if s.LLMCalls == 0 {
			t.Errorf("%s made no calls", s.Router)
		}
	}
}
