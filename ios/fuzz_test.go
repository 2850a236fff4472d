package ios

import (
	"strings"
	"testing"
)

// FuzzParse checks three invariants on arbitrary inputs: the parser never
// panics, it accepts, refuses and prints what the bufio-based reference
// splitter did (diffReference), and anything it accepts round-trips through
// the canonical printer (parse ∘ print ∘ parse is stable).
func FuzzParse(f *testing.F) {
	seeds := []string{
		paperISPOut,
		paperSnippet,
		"ip access-list extended A\n permit tcp any any eq 80\n deny ip any any\n",
		"access-list 101 permit udp 10.0.0.0 0.0.0.255 any range 100 200\n",
		"route-map RM permit 10\n match local-preference 300\n set metric 55\n continue 20\nroute-map RM deny 20\n",
		"ip community-list standard CL permit 100:1 100:2\n",
		"ip as-path access-list A permit _32$\n",
		"ip prefix-list P seq 5 deny 1.0.0.0/20 ge 24 le 28\n",
		"! comment\n\nroute-map X deny 10\n",
		"route-map RM permit 10\n set community 1:1 2:2 additive\n",
		"route-map RM permit 10\r\n\tmatch local-preference 300\r\n# note\r\n set metric 55",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if d := diffReference(input); d != "" {
			t.Fatalf("Parse differs from the reference on %q: %s", input, d)
		}
		cfg, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := cfg.Print()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n--- input ---\n%s\n--- printed ---\n%s", err, input, printed)
		}
		if again := back.Print(); again != printed {
			t.Fatalf("print not canonical:\n--- first ---\n%s\n--- second ---\n%s", printed, again)
		}
	})
}

// FuzzACEString checks that every parsed ACE renders to a line the parser
// accepts back.
func FuzzACEString(f *testing.F) {
	f.Add("permit tcp host 1.1.1.1 any eq 80")
	f.Add("deny udp 10.0.0.0 0.0.0.255 any range 5 10")
	f.Add("permit tcp any gt 1023 any established")
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			return
		}
		cfg, err := Parse("ip access-list extended F\n " + line + "\n")
		if err != nil {
			return
		}
		if len(cfg.ACLs["F"].Entries) != 1 {
			return // blank/comment line: nothing parsed
		}
		e := cfg.ACLs["F"].Entries[0]
		if _, err := Parse("ip access-list extended F\n " + e.String() + "\n"); err != nil {
			t.Fatalf("rendered ACE %q does not reparse: %v", e.String(), err)
		}
	})
}
