package disambig

import (
	"errors"
	"math/bits"
	"testing"
)

// TestSearchGap drives the §4 gap search with every monotone user over up
// to 40 probes: the user prefers the new rule exactly at probes i ≥ g.
func TestSearchGap(t *testing.T) {
	for k := 0; k <= 40; k++ {
		for g := 0; g <= k; g++ {
			for _, strategy := range []Strategy{StrategyBinary, StrategyLinear} {
				var asked []int
				got, err := searchGap(strategy, k, func(i int) (bool, error) {
					asked = append(asked, i)
					return i >= g, nil
				}, nil)
				if err != nil || got != g {
					t.Fatalf("%v k=%d g=%d: gap %d, err %v", strategy, k, g, got, err)
				}
				switch strategy {
				case StrategyBinary:
					// ⌈log₂(k+1)⌉ = bits.Len(k).
					if len(asked) > bits.Len(uint(k)) {
						t.Errorf("binary k=%d g=%d: %d asks %v, bound %d", k, g, len(asked), asked, bits.Len(uint(k)))
					}
				case StrategyLinear:
					if want := min(g+1, k); len(asked) != want {
						t.Errorf("linear k=%d g=%d: %d asks %v, want %d", k, g, len(asked), asked, want)
					}
					for i, p := range asked {
						if p != i {
							t.Fatalf("linear k=%d g=%d: asked %v, want 0, 1, ...", k, g, asked)
						}
					}
				}

				// An error on any ask ends the search there.
				boom := errors.New("boom")
				for failAt := range asked {
					calls := 0
					_, err := searchGap(strategy, k, func(i int) (bool, error) {
						calls++
						if calls-1 == failAt {
							return false, boom
						}
						return i >= g, nil
					}, nil)
					if !errors.Is(err, boom) || calls != failAt+1 {
						t.Errorf("%v k=%d g=%d fail at ask %d: err %v after %d asks", strategy, k, g, failAt+1, err, calls)
					}
				}
			}
		}
	}
}
