// Package promtext writes the Prometheus text exposition format (version
// 0.0.4). It carries the conventions shared by every exposition surface in
// this repo — clarifyd's /metrics and clarify-lb's /metrics — so the two
// daemons render identically-shaped series: durations in milliseconds with
// an explicit _ms suffix, histograms as cumulative le buckets plus +Inf,
// _sum and _count, and label values escaped per the format.
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the response Content-Type of a 0.0.4 exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders one exposition document to W.
type Writer struct {
	W io.Writer
}

// Header writes the # HELP / # TYPE preamble for one metric family.
func (p *Writer) Header(name, kind, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Counter writes a single unlabelled counter sample with its preamble.
func (p *Writer) Counter(name, help string, v float64) {
	p.Header(name, "counter", help)
	fmt.Fprintf(p.W, "%s %s\n", name, FormatFloat(v))
}

// Gauge writes a single unlabelled gauge sample with its preamble.
func (p *Writer) Gauge(name, help string, v float64) {
	p.Header(name, "gauge", help)
	fmt.Fprintf(p.W, "%s %s\n", name, FormatFloat(v))
}

// Sample writes one labelled sample line (no preamble); pass the label set
// preformatted, e.g. `backend="b0"`, or "" for none.
func (p *Writer) Sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(p.W, "%s %s\n", name, FormatFloat(v))
		return
	}
	fmt.Fprintf(p.W, "%s{%s} %s\n", name, labels, FormatFloat(v))
}

// Histogram writes one histogram series (no preamble): cumulative le
// buckets, an explicit +Inf bucket, then _sum and _count. As with Sample,
// labels is the preformatted label set, "" for none; counts has one entry
// per bound plus one for +Inf.
func (p *Writer) Histogram(name, labels string, buckets []float64, counts []int64, total int64, sum float64) {
	le := "le="
	if labels != "" {
		le = labels + ",le="
	}
	var cum int64
	for i, ub := range buckets {
		cum += counts[i]
		p.Sample(name+"_bucket", le+QuoteLabel(FormatFloat(ub)), float64(cum))
	}
	p.Sample(name+"_bucket", le+`"+Inf"`, float64(total))
	p.Sample(name+"_sum", labels, sum)
	p.Sample(name+"_count", labels, float64(total))
}

// FormatFloat renders a sample value the way Prometheus expects: no
// exponent for typical magnitudes, no trailing zeros.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// QuoteLabel escapes a label value per the exposition format.
func QuoteLabel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// SortedKeys returns a map's keys in sorted order, for deterministic output.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
