package promtext

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriterClassicFormat(t *testing.T) {
	var buf bytes.Buffer
	p := &Writer{W: &buf}
	p.Counter("x_requests_total", "Requests.", 3)
	p.Histogram("x_latency_ms", `stage="update"`, []float64{1, 5}, []int64{2, 1, 1}, 4, 12.5)
	p.Histogram("x_bits", "", []float64{0.5}, []int64{1, 0}, 1, 0.25)
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total 3
x_latency_ms_bucket{stage="update",le="1"} 2
x_latency_ms_bucket{stage="update",le="5"} 3
x_latency_ms_bucket{stage="update",le="+Inf"} 4
x_latency_ms_sum{stage="update"} 12.5
x_latency_ms_count{stage="update"} 4
x_bits_bucket{le="0.5"} 1
x_bits_bucket{le="+Inf"} 1
x_bits_sum 0.25
x_bits_count 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestContentType(t *testing.T) {
	if !strings.Contains(ContentType, "version=0.0.4") {
		t.Fatalf("content type = %q", ContentType)
	}
}
