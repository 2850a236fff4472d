package lb

import (
	"net/http"
	"sort"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/server"
)

// FleetAmbiguity is the body of the balancer's GET /debug/ambiguity: every
// admitted backend's disambiguation telemetry merged into one fleet view.
// The rollup sums merge exactly and the histograms share one fixed bucket
// table, so the fleet numbers equal what a single daemon serving the same
// traffic would have reported.
type FleetAmbiguity struct {
	server.AmbiguitySnapshot
	// BackendsReporting names the backends whose snapshots were merged, in
	// sorted order; a backend that errored or answered non-200 is absent.
	BackendsReporting []string `json:"backendsReporting"`
}

// handleDebugAmbiguity fans /debug/ambiguity out to every admitted backend
// and merges the snapshots.
func (l *LB) handleDebugAmbiguity(w http.ResponseWriter, r *http.Request) {
	merged := &FleetAmbiguity{}
	for _, b := range l.backends {
		var part server.AmbiguitySnapshot
		if b.Admitted() && l.getBackend(r, b, "/debug/ambiguity", &part) {
			merged.AmbiguitySnapshot.Merge(&part)
			merged.BackendsReporting = append(merged.BackendsReporting, b.Name)
		}
	}
	sort.Strings(merged.BackendsReporting)
	if merged.Rollup == nil {
		merged.Rollup = ambiguity.NewRollup()
	}
	l.proxied.Add(1)
	writeJSON(w, http.StatusOK, merged)
}
