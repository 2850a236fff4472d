// Package ciscorx translates Cisco IOS as-path and expanded community-list
// regular expressions into exact automata over boundary-explicit strings.
//
// Cisco regexes are searched (substring semantics) against the textual form
// of the attribute, with three metacharacters that reference positions rather
// than characters: '^' (start), '$' (end) and '_' (a boundary: start, end, or
// the delimiter between tokens). We make boundaries first-class by rendering
// subjects with explicit sentinel characters — the AS path [32, 54] becomes
// "^32 54$", the community 300:3 becomes "^300:3$" — after which '^' and '$'
// are ordinary literals and '_' is the character class [ ^$]. Substring
// search then reduces to full-match of .*(R).* over the sentinel alphabet.
//
// The same construction is used by the concrete evaluator (package policy)
// and the symbolic atomic-predicate builder (package atoms, driven by
// package symbolic), guaranteeing that both agree on every input. Memo
// lets them share one compiled automaton per pattern.
//
// A compiled automaton is not restricted to well-formed subjects: it also
// accepts malformed strings that contain a match, such as "^$32$" for _32$.
// The evaluator only renders well-formed subjects, and atoms.Build
// partitions the language of ValidPath or ValidCommunity, so neither needs
// the restriction.
package ciscorx

import (
	"fmt"
	"strings"

	"github.com/clarifynet/clarify/rx"
)

// PathAlphabet covers boundary-explicit AS-path strings.
var PathAlphabet = rx.Alphabet("0123456789 ^$")

// CommunityAlphabet covers boundary-explicit community strings.
var CommunityAlphabet = rx.Alphabet("0123456789:^$")

// digit{1,5}: up to five digits, keeping decoded numbers within uint16/uint32
// bounds for witnesses.
const numToken = "[0-9][0-9]?[0-9]?[0-9]?[0-9]?"

// validPath accepts "^$" (empty path) and "^a( b)*$" forms.
var validPath = rx.MustCompile(`\^(`+numToken+`( `+numToken+`)*)?\$`, PathAlphabet)

// validCommunity accepts "^hi:lo$" forms.
var validCommunity = rx.MustCompile(`\^`+numToken+`:`+numToken+`\$`, CommunityAlphabet)

// ValidPath returns the automaton of well-formed boundary-explicit AS-path
// strings. Atomic predicates partition its language, so every atom witness
// decodes to a real path.
func ValidPath() *rx.DFA { return validPath }

// ValidCommunity returns the automaton of well-formed boundary-explicit
// community strings.
func ValidCommunity() *rx.DFA { return validCommunity }

// translate rewrites Cisco metacharacters into the sentinel dialect.
func translate(pattern string) (string, error) {
	var sb strings.Builder
	inClass := false
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c == '\\':
			if i+1 >= len(pattern) {
				return "", fmt.Errorf("ciscorx: trailing backslash in %q", pattern)
			}
			sb.WriteByte('\\')
			i++
			sb.WriteByte(pattern[i])
		case c == '[':
			inClass = true
			sb.WriteByte(c)
		case c == ']':
			inClass = false
			sb.WriteByte(c)
		case inClass:
			sb.WriteByte(c)
		case c == '_':
			sb.WriteString(`[ \^$]`)
		case c == '^':
			sb.WriteString(`\^`)
		case c == '$':
			sb.WriteString(`\$`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String(), nil
}

func compile(pattern string, alpha rx.Alphabet) (*rx.DFA, error) {
	body, err := translate(pattern)
	if err != nil {
		return nil, err
	}
	d, err := rx.Compile(".*("+body+").*", alpha)
	if err != nil {
		return nil, fmt.Errorf("ciscorx: pattern %q: %w", pattern, err)
	}
	return d, nil
}

// CompilePath compiles a Cisco as-path regex to an automaton over
// boundary-explicit path strings. It matches a PathSubject exactly when the
// regex matches the path, for ASNs of any length.
func CompilePath(pattern string) (*rx.DFA, error) {
	return compile(pattern, PathAlphabet)
}

// CompileCommunity compiles a Cisco expanded community-list regex to an
// automaton over boundary-explicit community strings. It matches a
// CommunitySubject exactly when the regex matches the community.
func CompileCommunity(pattern string) (*rx.DFA, error) {
	return compile(pattern, CommunityAlphabet)
}

// PathSubject renders an ASN sequence in the boundary-explicit form matched
// by CompilePath automata.
func PathSubject(asns []uint32) string {
	var sb strings.Builder
	sb.WriteByte('^')
	for i, a := range asns {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", a)
	}
	sb.WriteByte('$')
	return sb.String()
}

// CommunitySubject renders a community string in boundary-explicit form.
func CommunitySubject(comm string) string { return "^" + comm + "$" }

// CommunityLiteral reports whether a community pattern's language holds
// exactly one well-formed subject, and returns it. Such a pattern is
// [_^]A:B[_$] with A and B of one to five digits, the numToken width: the
// only boundaries of a well-formed subject are its '^' and its '$', so the
// boundaries on both sides pin the match to the whole subject ^A:B$.
// Standard-list and set-community literals arrive in this form as ^A:B$.
func CommunityLiteral(pattern string) (string, bool) {
	n := len(pattern)
	if n < 5 || (pattern[0] != '_' && pattern[0] != '^') || (pattern[n-1] != '_' && pattern[n-1] != '$') {
		return "", false
	}
	body := pattern[1 : n-1]
	hi, lo, ok := strings.Cut(body, ":")
	if !ok || !isToken(hi) || !isToken(lo) {
		return "", false
	}
	if pattern[0] == '^' && pattern[n-1] == '$' {
		return pattern, true
	}
	return CommunitySubject(body), true
}

// isToken reports whether s is one to five digits.
func isToken(s string) bool {
	if len(s) < 1 || len(s) > 5 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
