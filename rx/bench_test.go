package rx

import "testing"

var benchAlpha = Alphabet("0123456789 :^$")

// BenchmarkCompile measures regex → minimal DFA compilation.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(`.*([ \^]300:3[ $]).*`, benchAlpha); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntersect measures the product construction central to atomic
// predicates.
func BenchmarkIntersect(b *testing.B) {
	x := MustCompile(".*( 32[ $]).*", benchAlpha)
	y := MustCompile(".*(100 ).*", benchAlpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Intersect(y)
	}
}

// BenchmarkComplement measures complement + minimization.
func BenchmarkComplement(b *testing.B) {
	x := MustCompile(".*(65000:[0-9]+).*", benchAlpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Complement()
	}
}

// BenchmarkMatches measures per-subject matching throughput.
func BenchmarkMatches(b *testing.B) {
	x := MustCompile(".*( 32[ $]).*", benchAlpha)
	subject := "^100 200 300 32$"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Matches(subject) {
			b.Fatal("should match")
		}
	}
}
