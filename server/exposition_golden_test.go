package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/clarifynet/clarify/ambiguity"
	"github.com/clarifynet/clarify/internal/golden"
	"github.com/clarifynet/clarify/internal/promtext"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
)

// TestExpositionGolden feeds fixed observations to the request-latency,
// stage and ambiguity histograms and a fixed LLM backend-path snapshot (a
// degraded stack whose primary breaker is open), then compares the
// Prometheus exposition and the ambiguity and resilience blocks' JSON with
// the golden files byte for byte. After an intended change, replace a
// golden file with the output the failure prints.
func TestExpositionGolden(t *testing.T) {
	m := newMetrics()
	for endpoint, ms := range map[string][]float64{
		"POST /v1/sessions":                   {0.4, 1.5, 3},
		"GET /v1/sessions/{id}/updates/{uid}": {0.2, 7, 40, 3000},
	} {
		h := NewHistogram(defaultLatencyBuckets)
		for _, v := range ms {
			h.add(v)
		}
		m.latency[endpoint] = h
	}
	m.observeTrace(&obs.Trace{Root: &obs.Span{Name: "update", Duration: 1212 * time.Millisecond, Children: []*obs.Span{
		{Name: "classify", Duration: 300 * time.Microsecond},
		{Name: "synthesize-attempt-1", Duration: 4 * time.Millisecond},
		{Name: "synthesize-attempt-2", Duration: 6500 * time.Microsecond},
		{Name: "disambiguate", Duration: 1200 * time.Millisecond},
	}}})

	a := newAmbiguityMetrics()
	a.record(&ambiguity.Ledger{Kind: "route-map", Strategy: "binary", InitialBits: 164.5, Questions: []ambiguity.Question{
		{BeforeBits: 164.5, AfterBits: 40, GainBits: 124.5, PreferNew: true},
		{BeforeBits: 40, AfterBits: 0, GainBits: 40},
	}})
	a.record(&ambiguity.Ledger{Kind: "acl", Strategy: "top-bottom", InitialBits: 12, ResidualBits: 5, Questions: []ambiguity.Question{
		{BeforeBits: 12, AfterBits: 5, GainBits: 7},
	}})
	a.record(&ambiguity.Ledger{Kind: "acl", Strategy: "binary"})

	snap := m.snapshot()
	snap.Ambiguity = a.snapshot()
	snap.Resilience = &resilience.Stats{
		Degraded: true,
		Breaker: &resilience.BreakerStats{State: "open", Opens: 3, ShortCircuits: 41,
			Probes: 2, ProbeFailures: 1, WindowRequests: 12, WindowFailures: 9},
		Chain: &resilience.ChainStats{
			Backends: []resilience.BackendStats{
				{Name: "http", Served: 17, Failures: 50},
				{Name: "sim", Served: 44, Failures: 6},
			},
			Fallbacks: 44,
			Exhausted: 6,
		},
	}
	var text bytes.Buffer
	writePrometheus(&promtext.Writer{W: &text}, snap)
	amb, err := json.MarshalIndent(snap.Ambiguity, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := json.MarshalIndent(snap.Resilience, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "exposition.golden", text.Bytes())
	golden.Check(t, "ambiguity.golden.json", append(amb, '\n'))
	golden.Check(t, "resilience.golden.json", append(rs, '\n'))
}
