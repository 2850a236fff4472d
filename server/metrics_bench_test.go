package server

import (
	"testing"
	"time"

	"github.com/clarifynet/clarify/obs"
)

// benchTrace builds a representative finished update trace: the root plus
// the pipeline stages a §2.1 walkthrough records.
func benchTrace() *obs.Trace {
	t := obs.NewTrace("update")
	for _, name := range []string{"classify", "spec-extract", "synthesize-attempt-1", "disambiguate"} {
		sp := t.Root.Child(name)
		sp.Duration = 3 * time.Millisecond
		sp.End()
	}
	t.Finish()
	return t
}

// BenchmarkObserveTrace measures folding one span tree into the stage
// histograms.
func BenchmarkObserveTrace(b *testing.B) {
	m := newMetrics()
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.observeTrace(tr)
	}
}
