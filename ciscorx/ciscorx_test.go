package ciscorx

import (
	"testing"

	"github.com/clarifynet/clarify/rx"
)

func pathMatch(t *testing.T, pattern string, asns ...uint32) bool {
	t.Helper()
	d, err := CompilePath(pattern)
	if err != nil {
		t.Fatalf("CompilePath(%q): %v", pattern, err)
	}
	return d.Matches(PathSubject(asns))
}

func TestPaperASPathRegex(t *testing.T) {
	// The paper's D0: "_32$" — routes originating from ASN 32.
	if !pathMatch(t, "_32$", 32) {
		t.Error("path [32] should match _32$")
	}
	if !pathMatch(t, "_32$", 100, 32) {
		t.Error("path [100 32] should match _32$")
	}
	if pathMatch(t, "_32$", 32, 100) {
		t.Error("path [32 100] should not match _32$")
	}
	if pathMatch(t, "_32$", 132) {
		t.Error("path [132] should not match _32$ (boundary)")
	}
	if pathMatch(t, "_32$", 321) {
		t.Error("path [321] should not match _32$")
	}
	if pathMatch(t, "_32$") {
		t.Error("empty path should not match _32$")
	}
}

func TestAnchorsAndEmptyPath(t *testing.T) {
	if !pathMatch(t, "^$") {
		t.Error("empty path should match ^$")
	}
	if pathMatch(t, "^$", 1) {
		t.Error("non-empty path should not match ^$")
	}
	if !pathMatch(t, "^65000_", 65000, 200) {
		t.Error("^65000_ should match path starting with 65000")
	}
	if pathMatch(t, "^65000_", 200, 65000) {
		t.Error("^65000_ must anchor at start")
	}
	// Unanchored substring: _7_ anywhere.
	if !pathMatch(t, "_7_", 1, 7, 9) || !pathMatch(t, "_7_", 7) || pathMatch(t, "_7_", 77) {
		t.Error("_7_ boundary semantics wrong")
	}
}

func TestDotAndClassesInPath(t *testing.T) {
	// ".*" matches everything.
	if !pathMatch(t, ".*") || !pathMatch(t, ".*", 1, 2, 3) {
		t.Error(".* should match any path")
	}
	// "^[1-3]$" matches single-ASN paths 1..3.
	for asn := uint32(1); asn <= 3; asn++ {
		if !pathMatch(t, "^[1-3]$", asn) {
			t.Errorf("^[1-3]$ should match [%d]", asn)
		}
	}
	if pathMatch(t, "^[1-3]$", 4) || pathMatch(t, "^[1-3]$", 12) {
		t.Error("^[1-3]$ overmatches")
	}
}

func TestPaperCommunityRegex(t *testing.T) {
	d, err := CompileCommunity("_300:3_")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Matches(CommunitySubject("300:3")) {
		t.Error("300:3 should match _300:3_")
	}
	for _, c := range []string{"1300:3", "300:33", "300:31", "3300:3"} {
		if d.Matches(CommunitySubject(c)) {
			t.Errorf("%s should not match _300:3_", c)
		}
	}
}

func TestCommunityAnchored(t *testing.T) {
	d, err := CompileCommunity("^100:[0-9]+$")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Matches(CommunitySubject("100:42")) || d.Matches(CommunitySubject("1100:42")) {
		t.Error("anchored community regex wrong")
	}
}

func TestBadPattern(t *testing.T) {
	if _, err := CompilePath("("); err == nil {
		t.Error("unbalanced pattern should fail")
	}
	if _, err := CompilePath(`\`); err == nil {
		t.Error("trailing backslash should fail")
	}
	if _, err := CompileCommunity("[z"); err == nil {
		t.Error("bad class should fail")
	}
}

// TestCommunityLiteral checks what is and is not a literal, and that a
// literal's compiled automaton accepts exactly its subject among well-formed
// communities. The recognizer may miss a singleton, such as _1:1[0]_, which
// then compiles as any regex does.
func TestCommunityLiteral(t *testing.T) {
	singleton := func(subject string) *rx.DFA {
		return rx.MustCompile(`\^`+subject[1:len(subject)-1]+`\$`, CommunityAlphabet)
	}
	for p, want := range map[string]string{
		"_65000:1_": "^65000:1$", "^65000:1$": "^65000:1$", "_1:2$": "^1:2$", "^1:2_": "^1:2$",
		"_01:1_": "^01:1$", "^99999:99999$": "^99999:99999$", "^70000:1$": "^70000:1$",
		"_1:1": "", "1:1_": "", "_123456:1_": "", "_1:1_2": "", "_1:_": "", "__": "",
		"_1:1:1_": "", "^1:1.$": "", "_:1_": "", "^1 1$": "", "_1:1[0]_": "",
	} {
		got, ok := CommunityLiteral(p)
		if got != want || ok != (want != "") {
			t.Errorf("CommunityLiteral(%q) = %q %v, want %q", p, got, ok, want)
		}
		d, err := CompileCommunity(p)
		if err != nil || !ok {
			continue
		}
		if inValid := d.Intersect(ValidCommunity()); !inValid.Equal(singleton(got)) {
			w, _ := inValid.ShortestString()
			t.Errorf("%q accepts more or less than %q among well-formed communities (shortest %q)", p, got, w)
		}
	}
}
