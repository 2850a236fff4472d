// Package promtext writes the Prometheus text exposition format (version
// 0.0.4). It carries the conventions shared by every exposition surface in
// this repo — clarifyd's /metrics and clarify-lb's /metrics — so the two
// daemons render identically-shaped series: durations in milliseconds with
// an explicit _ms suffix, histograms as cumulative le buckets plus +Inf,
// _sum and _count, and label values escaped per the format.
package promtext

import (
	"sort"
	"strconv"
	"strings"
)

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
