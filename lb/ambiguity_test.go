package lb

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/clarifynet/clarify/server"
)

// TestFleetAmbiguityMerge runs walkthrough updates through the balancer and
// checks the fleet view at /debug/ambiguity is exactly the sum of the
// backends' rollups — the merge is pure addition over sums, so the agreement
// is bit-for-bit, not approximate.
func TestFleetAmbiguityMerge(t *testing.T) {
	f := startLBFleet(t, 2, fastProbeOpts())
	c := f.client(nil)
	ctx := context.Background()

	// Several sessions so placement spreads work across both backends.
	for i := 0; i < 4; i++ {
		sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: exampleConfig})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		res, err := c.RunUpdate(ctx, sid, exampleIntent, "ISP_OUT", func(q server.Question) (int, error) {
			return 1, nil
		})
		if err != nil || res.Status != server.StatusDone {
			t.Fatalf("update %d: %v %+v", i, err, res)
		}
	}

	var fleet FleetAmbiguity
	getJSON(t, f.lbSrv.URL+"/debug/ambiguity", &fleet)
	if len(fleet.BackendsReporting) != 2 {
		t.Fatalf("backendsReporting = %v, want both backends", fleet.BackendsReporting)
	}

	var sum server.AmbiguitySnapshot
	for name := range f.backends {
		var part server.AmbiguitySnapshot
		getJSON(t, "http://"+name+"/debug/ambiguity", &part)
		sum.Merge(&part)
	}
	if sum.Rollup.Total.Updates != 4 {
		t.Fatalf("backends recorded %d updates total, want 4", sum.Rollup.Total.Updates)
	}
	if got, want := fleet.Rollup.Total, sum.Rollup.Total; got != want {
		t.Errorf("fleet total %+v != backend sum %+v", got, want)
	}
	if fleet.Rollup.UpdatesWithQuestions != sum.Rollup.UpdatesWithQuestions {
		t.Errorf("fleet UpdatesWithQuestions %d != sum %d",
			fleet.Rollup.UpdatesWithQuestions, sum.Rollup.UpdatesWithQuestions)
	}
	fb, sb := fleet.Rollup.Strategies["binary"], sum.Rollup.Strategies["binary"]
	if fb == nil || sb == nil || *fb != *sb {
		t.Errorf("fleet binary row %+v != backend sum %+v", fb, sb)
	}
	if fleet.QuestionsPerUpdate.Count != sum.QuestionsPerUpdate.Count ||
		fleet.QuestionsPerUpdate.Sum != sum.QuestionsPerUpdate.Sum {
		t.Errorf("fleet questionsPerUpdate %+v != backend sum %+v",
			fleet.QuestionsPerUpdate, sum.QuestionsPerUpdate)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
