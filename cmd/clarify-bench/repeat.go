package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// repeatability runs every workload in alternating sets (set 1 run 1, set 2
// run 1, set 1 run 2, ...), every run on the same seed, so the spread within
// a set is the host's run-to-run noise rather than the inputs'. It prints each
// end-to-end metric's per-set median and quartiles. Where a set's spread
// exceeds the metric's bound the comparison is unresolved; otherwise set
// medians that differ by more than the bound are flagged, and make the exit
// code 1.
func repeatability(w, errw io.Writer, selected []workloadDef, cfg config, sets, runs int) int {
	cfg.traced = false
	cfg.profile = ""
	flagged := 0
	for _, wd := range selected {
		vals := make([]map[string][]float64, sets)
		for s := range vals {
			vals[s] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for s := 0; s < sets; s++ {
				res, err := runWorkload(wd, cfg, false)
				if err != nil {
					fmt.Fprintf(errw, "clarify-bench: %s: %v\n", wd.name, err)
					return 1
				}
				if !res.correct() {
					fmt.Fprintf(errw, "clarify-bench: %s seed %d: incorrect run: %v\n", wd.name, cfg.seed, res.rec.problems)
					return 1
				}
				for _, m := range res.e2e {
					if !m.absent {
						vals[s][m.name] = append(vals[s][m.name], m.value)
					}
				}
			}
		}
		fmt.Fprintf(w, "\n%s: %d sets x %d runs, seed %d\n", wd.name, sets, runs, cfg.seed)
		fmt.Fprintf(w, "  %-24s %-40s %8s %8s %6s\n", "metric", "set medians [q1 q3]", "spread", "diff", "bound")
		for _, d := range e2eDefs {
			var cells string
			var meds []float64
			worstSpread := 0.0
			for s := 0; s < sets; s++ {
				q1, med, q3 := quartiles(vals[s][d.name])
				meds = append(meds, med)
				cells += fmt.Sprintf("%.4g [%.4g %.4g] ", med, q1, q3)
				if med != 0 {
					worstSpread = math.Max(worstSpread, (q3-q1)/math.Abs(med))
				}
			}
			diff := 0.0
			for _, m := range meds[1:] {
				if meds[0] != 0 {
					diff = math.Max(diff, math.Abs(m-meds[0])/math.Abs(meds[0]))
				}
			}
			mark := ""
			switch {
			case worstSpread > d.bound:
				mark = "  unresolved: a set's spread exceeds the bound"
			case diff > d.bound:
				mark = "  FLAG: set medians differ by more than the bound"
				flagged++
			case worstSpread > d.bound/3:
				mark = "  (spread above a third of the bound)"
			}
			fmt.Fprintf(w, "  %-24s %-40s %7.1f%% %7.1f%% %5.0f%%%s\n", d.name, cells, 100*worstSpread, 100*diff, 100*d.bound, mark)
		}
	}
	if flagged > 0 {
		return 1
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of xs with
// the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
