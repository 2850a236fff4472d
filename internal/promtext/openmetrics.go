package promtext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exemplar is one OpenMetrics exemplar: a trace reference attached to a
// histogram bucket (or counter) sample, rendered as
// "# {trace_id=\"...\"} value ts". Zero Ts omits the timestamp.
type Exemplar struct {
	// TraceID links the sample to a retained trace at /debug/traces/{id}.
	TraceID string
	// Value is the exemplared observation (milliseconds for latency series).
	Value float64
	// Ts is the observation time in unix seconds; 0 omits it.
	Ts float64
}

// Writer renders one exposition document in either the Prometheus text
// format (version 0.0.4) or OpenMetrics 1.0. The two differ where it
// matters for scrapers: OpenMetrics declares a counter family by its base
// name (samples keep the _total suffix), allows exemplars on histogram
// bucket lines, and terminates the document with "# EOF". The classic
// format ignores exemplars so 0.0.4 consumers never see the richer syntax.
type Writer struct {
	W           io.Writer
	OpenMetrics bool
}

// Header writes the # HELP / # TYPE preamble for one metric family. In
// OpenMetrics mode a counter family named x_total is declared as family x.
func (p *Writer) Header(name, kind, help string) {
	fam := name
	if p.OpenMetrics && kind == "counter" {
		fam = strings.TrimSuffix(name, "_total")
	}
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, kind)
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
// preformatted, e.g. `backend="b0"`.
func (p *Writer) Sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(p.W, "%s %s\n", name, FormatFloat(v))
		return
	}
	fmt.Fprintf(p.W, "%s{%s} %s\n", name, labels, FormatFloat(v))
}

// Histogram writes one labelled histogram series: cumulative le buckets, an
// explicit +Inf bucket, then _sum and _count. exemplars, when non-nil, holds
// one optional exemplar per bucket (len(bucketsMs)+1, the last for +Inf) and
// is rendered only in OpenMetrics mode.
func (p *Writer) Histogram(name, labelKey, labelVal string, bucketsMs []float64, counts []int64, total int64, sumMs float64, exemplars []*Exemplar) {
	label := labelKey + "=" + QuoteLabel(labelVal)
	var cum int64
	for i, ub := range bucketsMs {
		cum += counts[i]
		fmt.Fprintf(p.W, "%s_bucket{%s,le=%s} %d%s\n",
			name, label, QuoteLabel(FormatFloat(ub)), cum, p.exemplarSuffix(exemplars, i))
	}
	fmt.Fprintf(p.W, "%s_bucket{%s,le=\"+Inf\"} %d%s\n",
		name, label, total, p.exemplarSuffix(exemplars, len(bucketsMs)))
	fmt.Fprintf(p.W, "%s_sum{%s} %s\n", name, label, FormatFloat(sumMs))
	fmt.Fprintf(p.W, "%s_count{%s} %d\n", name, label, total)
}

// exemplarSuffix renders the " # {...} value ts" tail for bucket i, or "".
func (p *Writer) exemplarSuffix(exemplars []*Exemplar, i int) string {
	if !p.OpenMetrics || i >= len(exemplars) || exemplars[i] == nil || exemplars[i].TraceID == "" {
		return ""
	}
	e := exemplars[i]
	s := " # {trace_id=" + QuoteLabel(e.TraceID) + "} " + FormatFloat(e.Value)
	if e.Ts > 0 {
		s += " " + FormatFloat(e.Ts)
	}
	return s
}

// EOF terminates an OpenMetrics document; a no-op in 0.0.4 mode.
func (p *Writer) EOF() {
	if p.OpenMetrics {
		io.WriteString(p.W, "# EOF\n")
	}
}

// ContentType is the response Content-Type for the writer's format.
func (p *Writer) ContentType() string {
	if p.OpenMetrics {
		return "application/openmetrics-text; version=1.0.0; charset=utf-8"
	}
	return "text/plain; version=0.0.4; charset=utf-8"
}

// ValidateOpenMetrics checks an exposition document against the OpenMetrics
// constraints this repo relies on: a final "# EOF" line with nothing after
// it, well-formed HELP/TYPE comments, one TYPE per family, sample names
// consistent with their family's declared type (counter samples carry
// _total, histogram samples _bucket/_sum/_count), parseable values, and
// exemplar syntax only on bucket or counter lines. It is the CI gate that
// keeps the exemplar-enriched output scrapable.
func ValidateOpenMetrics(data []byte) error {
	text := string(data)
	if !strings.HasSuffix(text, "# EOF\n") {
		return fmt.Errorf("promtext: document must end with %q", "# EOF\n")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	types := map[string]string{} // family -> type
	for n, line := range lines {
		lineNo := n + 1
		if line == "" {
			return fmt.Errorf("promtext: line %d: empty line", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				if lineNo != len(lines) {
					return fmt.Errorf("promtext: line %d: # EOF before end of document", lineNo)
				}
				continue
			}
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return fmt.Errorf("promtext: line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) < 4 {
					return fmt.Errorf("promtext: line %d: TYPE needs a family and a type", lineNo)
				}
				fam, typ := fields[2], fields[3]
				if _, dup := types[fam]; dup {
					return fmt.Errorf("promtext: line %d: duplicate TYPE for %s", lineNo, fam)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "unknown", "info", "stateset", "gaugehistogram":
				default:
					return fmt.Errorf("promtext: line %d: unknown type %q", lineNo, typ)
				}
				types[fam] = typ
			case "HELP", "UNIT":
			default:
				return fmt.Errorf("promtext: line %d: unknown comment keyword %q", lineNo, fields[1])
			}
			continue
		}
		if err := validateSample(line, types); err != nil {
			return fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
	}
	return nil
}

// validateSample checks one metric line "name[{labels}] value [ts] [# {...} v [ts]]".
func validateSample(line string, types map[string]string) error {
	name := line
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name = line[:i]
	}
	if name == "" || !isMetricName(name) {
		return fmt.Errorf("bad metric name in %q", line)
	}
	rest := line[len(name):]
	if strings.HasPrefix(rest, "{") {
		end := labelSetEnd(rest)
		if end < 0 {
			return fmt.Errorf("unterminated label set in %q", line)
		}
		rest = rest[end:]
	}
	rest = strings.TrimPrefix(rest, " ")
	valuePart := rest
	var exemplarPart string
	if i := strings.Index(rest, " # "); i >= 0 {
		valuePart, exemplarPart = rest[:i], rest[i+3:]
	}
	valueFields := strings.Fields(valuePart)
	if len(valueFields) < 1 || len(valueFields) > 2 {
		return fmt.Errorf("want value [timestamp], got %q", valuePart)
	}
	for _, f := range valueFields {
		if !isValidValue(f) {
			return fmt.Errorf("bad number %q", f)
		}
	}
	fam, suffix := familyOf(name, types)
	if typ, ok := types[fam]; ok {
		if err := checkSuffix(typ, suffix); err != nil {
			return err
		}
	}
	if exemplarPart != "" {
		if suffix != "_bucket" && suffix != "_total" {
			return fmt.Errorf("exemplar on non-bucket/counter sample %q", name)
		}
		if err := validateExemplar(exemplarPart); err != nil {
			return err
		}
	}
	return nil
}

// familyOf resolves a sample name to its declared family plus the suffix the
// sample carries relative to it ("" for a bare match).
func familyOf(name string, types map[string]string) (string, string) {
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count", "_created"} {
		if fam, ok := strings.CutSuffix(name, suf); ok {
			if _, declared := types[fam]; declared {
				return fam, suf
			}
		}
	}
	return name, ""
}

// checkSuffix enforces the sample-name shape each family type allows.
func checkSuffix(typ, suffix string) error {
	ok := false
	switch typ {
	case "counter":
		ok = suffix == "_total" || suffix == "_created"
	case "histogram":
		ok = suffix == "_bucket" || suffix == "_sum" || suffix == "_count" || suffix == "_created"
	default:
		ok = suffix == ""
	}
	if !ok {
		return fmt.Errorf("sample suffix %q invalid for %s family", suffix, typ)
	}
	return nil
}

// validateExemplar checks the "{labels} value [ts]" tail after "# ".
func validateExemplar(s string) error {
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("exemplar must start with a label set, got %q", s)
	}
	end := labelSetEnd(s)
	if end < 0 {
		return fmt.Errorf("unterminated exemplar label set in %q", s)
	}
	fields := strings.Fields(s[end:])
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar wants value [timestamp], got %q", s[end:])
	}
	for _, f := range fields {
		if !isValidValue(f) {
			return fmt.Errorf("bad exemplar number %q", f)
		}
	}
	return nil
}

// labelSetEnd returns the index just past the closing '}' of a label set
// starting at s[0] == '{', honouring quoted values with escapes; -1 if
// unterminated.
func labelSetEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i + 1
			}
		}
	}
	return -1
}

func isMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func isValidValue(s string) bool {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
