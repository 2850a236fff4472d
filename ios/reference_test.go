package ios

import (
	"bufio"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// referenceParse is Parse as it read its input through bufio.Scanner, kept
// to check the line walk that replaced it: ScanLines splits at '\n' and
// drops one '\r' before it, and a line that does not fit the scanner's
// 1 MiB buffer with its newline stops the scan.
func referenceParse(text string) (*Config, error) {
	cfg := NewConfig()
	p := &lineParser{cfg: cfg}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.line(lineNo, line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ios: %v", err)
	}
	return cfg, nil
}

// diffReference says how Parse and referenceParse differ on text, or
// returns "" when both accept it and print the same configuration, or both
// refuse it with equal *ParseErrors or, at the line limit, with none.
func diffReference(text string) string {
	got, err := Parse(text)
	want, werr := referenceParse(text)
	var pe, wpe *ParseError
	isPE, wantPE := errors.As(err, &pe), errors.As(werr, &wpe)
	switch {
	case (err == nil) != (werr == nil), isPE != wantPE, isPE && *pe != *wpe:
		return fmt.Sprintf("Parse error %v, reference error %v", err, werr)
	case err == nil && got.Print() != want.Print():
		return fmt.Sprintf("Parse printed\n%s\nreference printed\n%s", got.Print(), want.Print())
	}
	return ""
}

// TestParseMatchesReference: the line walk accepts and refuses what the
// bufio-based splitter did, numbers lines as it did, and parses the same
// configuration, at the 1 MiB line limit too.
func TestParseMatchesReference(t *testing.T) {
	var big strings.Builder
	big.WriteString("ip community-list standard BIG permit")
	for i := 0; big.Len() < 100*1024; i++ {
		fmt.Fprintf(&big, " 65000:%d", i)
	}
	comment := func(n int) string { return "!" + strings.Repeat("x", n-1) }
	for _, tc := range []struct{ name, text string }{
		{"empty", ""},
		{"snippet", paperSnippet},
		{"config", paperISPOut},
		{"CRLF", strings.ReplaceAll(paperSnippet, "\n", "\r\n")},
		{"lone CR", "\r"},
		{"CR inside a line", "route-map X deny 10\rroute-map Y deny 20\n"},
		{"no final newline", strings.TrimSuffix(paperSnippet, "\n")},
		{"blank lines", "\n\n   \nroute-map X deny 10\n\n \t\n"},
		{"comments", "! a comment\n# another\nroute-map X deny 10\n !indented\n #indented\n"},
		{"tabs", "route-map RM permit 10\n\tmatch local-preference 300\n\tset metric 55\t\n"},
		{"error line number", "route-map X deny 10\n\n! note\nbogus line\n"},
		{"100 KiB line", big.String() + "\n"},
		{"line one byte under 1 MiB", comment(1<<20-1) + "\n"},
		{"line one byte under 1 MiB, no final newline", comment(1<<20 - 1)},
		{"1 MiB line", comment(1<<20) + "\n"},
		{"1 MiB line, no final newline", comment(1 << 20)},
		{"1 MiB line with its CR", comment(1<<20-1) + "\r\n"},
		{"1 MiB line after an error", "bogus\n" + comment(1<<20) + "\n"},
		{"error after a 1 MiB line", "route-map X deny 10\n" + comment(1<<20) + "\nbogus\n"},
	} {
		if d := diffReference(tc.text); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}

// TestParseAllocation: parsing the synthesizer's one-stanza snippet costs
// what its lines cost. bufio.Scanner's first buffer alone was 4,096 bytes.
func TestParseAllocation(t *testing.T) {
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse(paperSnippet); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 4096 {
		t.Errorf("Parse(paperSnippet) allocated %d bytes per call, want under 4096", perCall)
	}
}
