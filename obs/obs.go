// Package obs provides structured, span-based tracing for the Clarify
// pipeline: one Trace per update, holding a tree of Spans (classify,
// synthesize-attempt-N, parse, spec-extract, verify, disambiguate,
// question-wait, insert), each with a start time, a duration, typed
// attributes (attempt numbers, fault feedback, LLM latency and retries,
// BDD workload counters) and free-text event lines.
//
// The package is deliberately dependency-free so every layer of the
// repository — bdd, symbolic, llm, spec, disambig, clarify, server — can
// annotate spans without import cycles.
//
// Nil-safety is the core contract: every method on a nil *Trace or nil
// *Span is a no-op, so instrumented code needs no "is tracing enabled?"
// branches and pays nothing (no allocations, no locks) when tracing is off.
// A Trace is owned by the goroutine running its pipeline until Finish; after
// it has been handed to a Sink it must be treated as read-only.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AttrKind discriminates the typed value carried by an Attr.
type AttrKind uint8

// Attribute kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrDuration
	AttrBool
	AttrFloat
)

// Attr is one typed span attribute. Exactly one of the value fields is
// meaningful, selected by Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Dur   time.Duration
	Bool  bool
	Float float64
}

// attrJSON is the wire form of an Attr: the key plus exactly one value field.
type attrJSON struct {
	Key   string   `json:"key"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	DurMs *float64 `json:"durMs,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
	Float *float64 `json:"float,omitempty"`
}

// MarshalJSON renders the attribute with only its typed value present.
func (a Attr) MarshalJSON() ([]byte, error) {
	out := attrJSON{Key: a.Key}
	switch a.Kind {
	case AttrString:
		out.Str = &a.Str
	case AttrInt:
		out.Int = &a.Int
	case AttrDuration:
		ms := float64(a.Dur) / float64(time.Millisecond)
		out.DurMs = &ms
	case AttrBool:
		out.Bool = &a.Bool
	case AttrFloat:
		out.Float = &a.Float
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores an attribute from its wire form.
func (a *Attr) UnmarshalJSON(data []byte) error {
	var in attrJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	a.Key = in.Key
	switch {
	case in.Str != nil:
		a.Kind, a.Str = AttrString, *in.Str
	case in.Int != nil:
		a.Kind, a.Int = AttrInt, *in.Int
	case in.DurMs != nil:
		a.Kind, a.Dur = AttrDuration, time.Duration(*in.DurMs*float64(time.Millisecond))
	case in.Bool != nil:
		a.Kind, a.Bool = AttrBool, *in.Bool
	case in.Float != nil:
		a.Kind, a.Float = AttrFloat, *in.Float
	}
	return nil
}

// Span is one timed stage of a pipeline run. Spans form a tree under the
// owning Trace's Root. All methods are safe on a nil receiver.
type Span struct {
	Name string `json:"name"`
	// SpanID is the span's W3C-style 16-hex-digit ID, allocated at creation.
	SpanID   string        `json:"spanId,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"-"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	// Events are free-text log lines attached to the span, in order (the
	// legacy clarify trace lines).
	Events   []string `json:"events,omitempty"`
	Children []*Span  `json:"children,omitempty"`

	trace *Trace
}

// spanJSON adds the duration in fractional milliseconds to the wire form.
type spanJSON struct {
	Name     string    `json:"name"`
	SpanID   string    `json:"spanId,omitempty"`
	Start    time.Time `json:"start"`
	DurMs    float64   `json:"durMs"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Events   []string  `json:"events,omitempty"`
	Children []*Span   `json:"children,omitempty"`
}

// MarshalJSON renders the span with durMs instead of nanoseconds.
func (sp *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		Name:     sp.Name,
		SpanID:   sp.SpanID,
		Start:    sp.Start,
		DurMs:    float64(sp.Duration) / float64(time.Millisecond),
		Attrs:    sp.Attrs,
		Events:   sp.Events,
		Children: sp.Children,
	})
}

// UnmarshalJSON restores a span from its wire form.
func (sp *Span) UnmarshalJSON(data []byte) error {
	var in spanJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	sp.Name = in.Name
	sp.SpanID = in.SpanID
	sp.Start = in.Start
	sp.Duration = time.Duration(in.DurMs * float64(time.Millisecond))
	sp.Attrs = in.Attrs
	sp.Events = in.Events
	sp.Children = in.Children
	return nil
}

// Child starts a new child span. It returns nil on a nil receiver, so whole
// instrumented call chains collapse to no-ops when tracing is disabled.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	c := &Span{Name: name, SpanID: NewSpanID(), Start: time.Now(), trace: sp.trace}
	sp.Children = append(sp.Children, c)
	return c
}

// ChildN starts a child span named prefix + "-" + n (e.g.
// "synthesize-attempt-2") without allocating the name when tracing is off.
func (sp *Span) ChildN(prefix string, n int) *Span {
	if sp == nil {
		return nil
	}
	return sp.Child(prefix + "-" + strconv.Itoa(n))
}

// End records the span's duration. Idempotent: the first call wins.
func (sp *Span) End() {
	if sp == nil || sp.Duration != 0 {
		return
	}
	sp.Duration = time.Since(sp.Start)
	if sp.Duration == 0 {
		sp.Duration = 1 // clamp so "ended" is distinguishable on coarse clocks
	}
}

// SetStr attaches a string attribute.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Kind: AttrString, Str: v})
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Kind: AttrInt, Int: v})
}

// SetDur attaches a duration attribute.
func (sp *Span) SetDur(key string, v time.Duration) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Kind: AttrDuration, Dur: v})
}

// SetBool attaches a boolean attribute.
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Kind: AttrBool, Bool: v})
}

// SetFloat attaches a floating-point attribute (bits of ambiguity, scores).
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
}

// Attr returns the attribute with the given key and whether it exists.
func (sp *Span) Attr(key string) (Attr, bool) {
	if sp == nil {
		return Attr{}, false
	}
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Logf attaches a formatted event line to the span. When the owning trace
// has a LineWriter, the line is also streamed to it immediately as
// "<LinePrefix><line>\n" — the adapter preserving the legacy clarify
// free-text trace format.
func (sp *Span) Logf(format string, args ...interface{}) {
	if sp == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	sp.Events = append(sp.Events, line)
	if t := sp.trace; t != nil && t.LineWriter != nil {
		fmt.Fprintf(t.LineWriter, "%s%s\n", t.LinePrefix, line)
	}
}

// Trace is one pipeline run's span tree. All methods are safe on a nil
// receiver.
type Trace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	Root  *Span     `json:"root"`
	// ParentSpanID is the remote parent's span ID when this trace continues
	// a W3C context propagated from another process: a clarify -remote
	// invocation's span, or the span ID clarify-lb minted with the context
	// for a caller that sent none, which names no recorded span. Empty for
	// locally rooted traces.
	ParentSpanID string `json:"parentSpanId,omitempty"`

	// LineWriter, when non-nil, receives every Logf line as it is logged,
	// prefixed with LinePrefix — the live adapter onto the legacy io.Writer
	// trace format.
	LineWriter io.Writer `json:"-"`
	LinePrefix string    `json:"-"`
}

// NewTrace starts a trace with a fresh random ID and a started root span.
func NewTrace(rootName string) *Trace {
	return newTrace(rootName, NewTraceID(), "")
}

// NewTraceWith starts a trace that continues a propagated W3C context: the
// trace adopts tp's trace ID and records tp's span ID as its remote parent.
// An invalid tp falls back to a locally rooted NewTrace; only then is an ID
// minted.
func NewTraceWith(rootName string, tp TraceParent) *Trace {
	if !tp.Valid() {
		return NewTrace(rootName)
	}
	return newTrace(rootName, tp.TraceID, tp.SpanID)
}

// newTrace starts a trace under the given ID and remote parent (empty for
// a locally rooted trace).
func newTrace(rootName, id, parentSpanID string) *Trace {
	t := &Trace{ID: id, Start: time.Now(), ParentSpanID: parentSpanID}
	t.Root = &Span{Name: rootName, SpanID: NewSpanID(), Start: t.Start, trace: t}
	return t
}

// Finish ends the root span. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// Duration is the root span's duration (zero until Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil || t.Root == nil {
		return 0
	}
	return t.Root.Duration
}

// Walk visits every span depth-first, parents before children.
func (t *Trace) Walk(fn func(sp *Span, depth int)) {
	if t == nil || t.Root == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
}

// Find returns the first span (depth-first) whose name equals name, or nil.
func (t *Trace) Find(name string) *Span {
	var found *Span
	t.Walk(func(sp *Span, _ int) {
		if found == nil && sp.Name == name {
			found = sp
		}
	})
	return found
}

// SpanCount is the number of spans in the tree, including the root.
func (t *Trace) SpanCount() int {
	n := 0
	t.Walk(func(*Span, int) { n++ })
	return n
}

// CanonicalStage maps a span name onto its metrics stage: a trailing
// "-<number>" is stripped, so every "synthesize-attempt-N" aggregates into
// one "synthesize-attempt" histogram.
func CanonicalStage(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Sink consumes completed traces. Implementations shared across sessions
// must be safe for concurrent use.
type Sink interface {
	// TraceDone is called exactly once per trace, after Finish; the trace
	// must be treated as read-only.
	TraceDone(t *Trace)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Trace)

// TraceDone implements Sink.
func (f SinkFunc) TraceDone(t *Trace) { f(t) }

// JSONWriter is a Sink that appends each completed trace as one JSON line
// (JSONL), for offline analysis of eval runs. It is safe for concurrent use.
type JSONWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONWriter returns a JSONL trace sink writing to w.
func NewJSONWriter(w io.Writer) *JSONWriter { return &JSONWriter{w: w} }

// TraceDone implements Sink.
func (j *JSONWriter) TraceDone(t *Trace) {
	data, err := json.Marshal(t)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w.Write(data)
	io.WriteString(j.w, "\n")
}

// ctxKey is the context key for the active span.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp, so layers below a pipeline stage
// (e.g. the LLM client's retry loop) can annotate the stage's span. A nil
// span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
