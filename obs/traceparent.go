package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	mrand "math/rand/v2"
)

// TraceParentHeader is the W3C Trace Context header name carrying a
// TraceParent between processes (clarify-lb → clarifyd, clarify → clarifyd).
const TraceParentHeader = "traceparent"

// FlagSampled is the traceparent flag bit marking a request whose trace is
// being recorded upstream.
const FlagSampled byte = 0x01

// TraceParent is a parsed W3C traceparent value: the trace ID,
// the caller's span ID (which becomes the remote parent of the local root
// span), and the trace flags. The zero value is invalid.
type TraceParent struct {
	TraceID string // 32 lowercase hex digits, not all zero
	SpanID  string // 16 lowercase hex digits, not all zero
	Flags   byte
}

// Valid reports whether the TraceParent carries well-formed, non-zero IDs.
func (tp TraceParent) Valid() bool {
	return isHexID(tp.TraceID, 32) && isHexID(tp.SpanID, 16)
}

// Sampled reports whether the sampled flag bit is set.
func (tp TraceParent) Sampled() bool { return tp.Flags&FlagSampled != 0 }

// String renders the version-00 wire form "00-<trace-id>-<span-id>-<flags>".
func (tp TraceParent) String() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = append(b, tp.TraceID...)
	b = append(b, '-')
	b = append(b, tp.SpanID...)
	b = append(b, '-')
	b = append(b, hexDigit(tp.Flags>>4), hexDigit(tp.Flags&0x0f))
	return string(b)
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

// ParseTraceParent parses a W3C traceparent header value. It accepts any
// version except the reserved "ff" (per the spec, unknown future versions
// are parsed for their first four fields), and rejects malformed lengths,
// non-hex digits, and all-zero trace or span IDs.
func ParseTraceParent(s string) (TraceParent, bool) {
	// version(2) '-' traceid(32) '-' spanid(16) '-' flags(2) [rest]
	if len(s) < 55 {
		return TraceParent{}, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceParent{}, false
	}
	ver := s[0:2]
	if !isHex(ver) || ver == "ff" {
		return TraceParent{}, false
	}
	if ver == "00" && len(s) != 55 {
		return TraceParent{}, false
	}
	if len(s) > 55 && s[55] != '-' {
		return TraceParent{}, false
	}
	tp := TraceParent{TraceID: s[3:35], SpanID: s[36:52]}
	if !tp.Valid() {
		return TraceParent{}, false
	}
	flags, ok := hexByte(s[53], s[54])
	if !ok {
		return TraceParent{}, false
	}
	tp.Flags = flags
	return tp, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// isHexID reports whether s is exactly n lowercase hex digits and not all
// zeros (all-zero IDs are invalid per the W3C spec).
func isHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

func hexByte(hi, lo byte) (byte, bool) {
	h, okH := unhex(hi)
	l, okL := unhex(lo)
	return h<<4 | l, okH && okL
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// NewTraceID returns a fresh random 32-hex-digit W3C trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable; fall back to the fast PRNG
		// so IDs stay distinct and the pipeline keeps running.
		return NewSpanID() + NewSpanID()
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-digit span ID. Span IDs are allocated on
// every span when tracing is on, so this uses the cheap goroutine-safe PRNG
// rather than crypto/rand; trace IDs remain cryptographically random.
func NewSpanID() string {
	v := mrand.Uint64()
	for v == 0 {
		v = mrand.Uint64()
	}
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return hex.EncodeToString(b[:])
}

// tpKey is the context key for a propagated TraceParent.
type tpKey struct{}

// ContextWithTraceParent returns ctx carrying tp, so a server handler can
// hand the extracted W3C context to the pipeline (which adopts the trace ID
// and remote parent in beginTrace) and an HTTP client can inject it on
// outbound requests. An invalid tp returns ctx unchanged.
func ContextWithTraceParent(ctx context.Context, tp TraceParent) context.Context {
	if !tp.Valid() {
		return ctx
	}
	return context.WithValue(ctx, tpKey{}, tp)
}

// TraceParentFromContext returns the TraceParent carried by ctx, if any.
func TraceParentFromContext(ctx context.Context) (TraceParent, bool) {
	tp, ok := ctx.Value(tpKey{}).(TraceParent)
	return tp, ok
}
