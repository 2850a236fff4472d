package server

import (
	"net/http"
	"strconv"

	"github.com/clarifynet/clarify/internal/wire"
	"github.com/clarifynet/clarify/obs"
)

// traceRingSize is how many recent completed traces the /debug/traces
// ring holds; the journal (-journal) keeps every trace durably.
const traceRingSize = 256

// TraceSummary is one row of GET /debug/traces.
type TraceSummary struct {
	ID         string  `json:"id"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"durationMs"`
	Spans      int     `json:"spans"`
	// ParentSpanID is the span ID of the propagated context the trace
	// continues: a caller's span, or one clarify-lb minted that names no
	// recorded span.
	ParentSpanID string `json:"parentSpanId,omitempty"`
	// Target and Error echo the root span's attributes when present.
	Target string `json:"target,omitempty"`
	Error  string `json:"error,omitempty"`
}

func summarize(t *obs.Trace) TraceSummary {
	s := TraceSummary{
		ID:           t.ID,
		Start:        t.Start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		DurationMs:   float64(t.Duration()) / 1e6,
		Spans:        t.SpanCount(),
		ParentSpanID: t.ParentSpanID,
	}
	if a, ok := t.Root.Attr("target"); ok {
		s.Target = a.Str
	}
	if a, ok := t.Root.Attr("error"); ok {
		s.Error = a.Str
	}
	return s
}

// handleDebugTraces lists the retained traces, newest first. ?limit=N bounds
// the response to the N most recent.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer", 0)
			return
		}
		limit = n
	}
	traces := s.traces.List()
	if limit >= 0 && limit < len(traces) {
		traces = traces[:limit]
	}
	out := make([]TraceSummary, 0, len(traces))
	for _, t := range traces {
		out = append(out, summarize(t))
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleDebugTrace returns one retained trace's full span tree.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := s.traces.Get(r.PathValue("tid"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such trace (evicted or never recorded)", 0)
		return
	}
	wire.WriteJSON(w, http.StatusOK, t)
}
