package atoms

import (
	"testing"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/workload"
)

// BenchmarkBuild measures the partition alone: every pattern's automaton is
// compiled before the timer starts. The cases are the cloud route map with
// the most community patterns, eight transit as-path conditions (256 atoms)
// and 200 community literals. The carved cases partition the same community
// patterns with the literals carved out instead of multiplied.
func BenchmarkBuild(b *testing.B) {
	var heavy []string
	for _, cfg := range workload.Cloud(1, 10, 140).RouteMapConfigs {
		if _, comm := routeMapPatterns(cfg); len(comm) > len(heavy) {
			heavy = comm
		}
	}
	for _, c := range []struct {
		name     string
		patterns []string
		literal  func(string) (string, bool)
		compile  func(string) (*rx.DFA, error)
		valid    *rx.DFA
	}{
		{"cloud-community-heavy", heavy, nil, ciscorx.CompileCommunity, ciscorx.ValidCommunity()},
		{"cloud-community-heavy-carved", heavy, ciscorx.CommunityLiteral, ciscorx.CompileCommunity, ciscorx.ValidCommunity()},
		{"transit-8", transitPatterns(8), nil, ciscorx.CompilePath, ciscorx.ValidPath()},
		{"literals-200", communityLiterals(200), nil, ciscorx.CompileCommunity, ciscorx.ValidCommunity()},
		{"literals-200-carved", communityLiterals(200), ciscorx.CommunityLiteral, ciscorx.CompileCommunity, ciscorx.ValidCommunity()},
	} {
		dfas := map[string]*rx.DFA{}
		for _, p := range c.patterns {
			d, err := c.compile(p)
			if err != nil {
				b.Fatal(err)
			}
			dfas[p] = d
		}
		compiled := func(p string) (*rx.DFA, error) { return dfas[p], nil }
		split := freshSplit(c.valid)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildWithLiterals(c.patterns, c.literal, compiled, split); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
