package ciscorx

import (
	"strconv"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/rx"
)

// BenchmarkCompile measures uncached compilation of the pattern shapes
// route-map intents bring: origin, neighbor and transit as-path conditions
// and three community forms. Every iteration compiles a fresh number, as a
// new intent does; N has five digits and M three. The patterns are spelled
// before the timer starts.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		shape   string
		compile func(string) (*rx.DFA, error)
	}{
		{"_N$", CompilePath},
		{"^N_", CompilePath},
		{"_N_", CompilePath},
		{"_N:M_", CompileCommunity},
		{"^N:M$", CompileCommunity},
		{"_N:[0-9]+_", CompileCommunity},
	} {
		b.Run(c.shape, func(b *testing.B) {
			patterns := make([]string, b.N)
			for i := range patterns {
				n, m := strconv.Itoa(10000+i%55000), strconv.Itoa(100+i%900)
				patterns[i] = strings.NewReplacer("N", n, "M", m).Replace(c.shape)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, p := range patterns {
				if _, err := c.compile(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
