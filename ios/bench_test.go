package ios

import "testing"

// BenchmarkParse measures parsing a one-stanza snippet, the size the
// synthesizer returns per update, and the paper's base configuration.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, text string }{
		{"snippet", paperSnippet},
		{"config", paperISPOut},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
