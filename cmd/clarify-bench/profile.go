package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// modulePrefix is trimmed from package paths in the share table.
const modulePrefix = "github.com/clarifynet/clarify/"

// betweenRounds labels the profile samples of the checks and heap samples
// taken between measured rounds, which the share table leaves out.
const betweenRounds = "between-rounds"

// packageShares prints the per-package self-CPU share of a workload's CPU
// profile, from the flat column of `go tool pprof -top` over the measured
// rounds.
func packageShares(w io.Writer, dir, workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	prof := filepath.Join(dir, workload+".pprof")
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-tagignore=phase="+betweenRounds, exe, prof).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares := parseTop(string(out))
	pkgs := make([]string, 0, len(shares))
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	fmt.Fprintf(w, "  self CPU by package (%s):\n", prof)
	for _, p := range pkgs {
		if shares[p] >= 0.5 {
			fmt.Fprintf(w, "  %-36s %6.1f %%\n", strings.TrimPrefix(p, modulePrefix), shares[p])
		}
	}
	return nil
}

// parseTop sums the flat column of `go tool pprof -top` output by package,
// as percentages of the listed total.
func parseTop(out string) map[string]float64 {
	flat := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		secs, ok := parseSeconds(f[0])
		if !ok {
			continue // the column header
		}
		flat[packageOf(strings.Join(f[5:], " "))] += secs
		total += secs
	}
	for p := range flat {
		flat[p] *= 100 / total
	}
	return flat
}

// parseSeconds reads a pprof duration such as "1.20s", "90ms" or "2.5mins".
func parseSeconds(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}

// packageOf returns the import path of a profiled function name such as
// "github.com/clarifynet/clarify/rx.(*DFA).Minimize" or "runtime.mallocgc".
// Assembly symbols without a package, such as "aeshashbody", are the
// runtime's.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}
