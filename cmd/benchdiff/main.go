// Command benchdiff compares two `go test -bench` outputs and fails on
// performance regressions — the comparator behind the bench-gate CI job.
// It is a dependency-free benchstat substitute with an exit-code
// contract: it aggregates multi-sample runs (-count N) by median,
// prints a delta table, and exits non-zero when the head measurement
// regresses past the thresholds.
//
// Gates:
//   - ns/op: median regression beyond -ns-threshold (default 15%) fails.
//   - allocs/op: any median increase beyond two allocations fails (the
//     slack absorbs one-off samples shifted by background GC timing;
//     real alloc regressions move in much larger steps).
//   - B/op: a median increase of more than 10% and more than 1 KiB
//     fails. The allocation count alone misses a single allocation that
//     grows: an 8 MiB buffer and a 16 KiB one are one alloc each.
//   - */run (blocks/run, increments/run, accesses/run, instrs/run):
//     exact counts of one run's work, so any rise of the median fails,
//     with no tolerance. A count the base does not report is not gated.
//   - a benchmark present in the base output but missing from the head
//     output fails, and so does a */run count the base reports and the
//     head does not — a silently narrowed filter must not pass the gate.
//
// Usage:
//
//	benchdiff [-ns-threshold 0.15] base.bench head.bench
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	nsThreshold := flag.Float64("ns-threshold", 0.15,
		"maximum tolerated fractional ns/op increase (0.15 = +15%)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-ns-threshold frac] base.bench head.bench")
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	head, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	regressions := diff(os.Stdout, base, head, *nsThreshold)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s)\n", regressions)
		os.Exit(1)
	}
}

// samples holds every recorded value of one metric of one benchmark,
// in input order (one entry per -count sample).
type samples map[string][]float64 // unit -> values

func parseFile(path string) (map[string]samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, vals, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s := out[name]
		if s == nil {
			s = samples{}
			out[name] = s
		}
		for unit, v := range vals {
			s[unit] = append(s[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Benchmark lines", path)
	}
	return out, nil
}

// parseLine splits one benchmark result line into its name (GOMAXPROCS
// suffix stripped, so base and head machines may differ) and its
// value/unit pairs: "BenchmarkX-8 30 123 ns/op 4 allocs/op" ->
// "BenchmarkX", {ns/op: 123, allocs/op: 4}.
func parseLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	vals := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[fields[i+1]] = v
	}
	if len(vals) == 0 {
		return "", nil, false
	}
	return name, vals, true
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// allocSlack is the tolerated absolute median allocs/op increase;
// background GC timing can shift an isolated sample by an allocation
// or two, and real regressions move in far larger steps.
const allocSlack = 2.0

// A median B/op increase fails only past both bytesThreshold (relative)
// and bytesSlack (absolute): the first keeps the gate quiet on large
// allocations that vary a little between samples, the second on small
// benchmarks where a few bytes are a large fraction.
const (
	bytesThreshold = 0.10
	bytesSlack     = 1024.0
)

// countSuffix ends the unit of an exact per-run count: the benchmark's
// work in one run, which repeats exactly from run to run, so any rise
// of its median is a regression.
const countSuffix = "/run"

// diff prints the comparison table and returns the regression count.
func diff(w *os.File, base, head map[string]samples, nsThreshold float64) int {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "benchmark", "base", "head", "delta")
	for _, n := range names {
		h, ok := head[n]
		if !ok {
			fmt.Fprintf(w, "%-44s missing from head output: FAIL\n", n)
			regressions++
			continue
		}
		b := base[n]
		units := []string{"ns/op", "B/op", "allocs/op"}
		var counts []string
		for unit := range b {
			if strings.HasSuffix(unit, countSuffix) {
				counts = append(counts, unit)
			}
		}
		sort.Strings(counts)
		for _, unit := range append(units, counts...) {
			bv, hv := b[unit], h[unit]
			if len(bv) != 0 && len(hv) == 0 && strings.HasSuffix(unit, countSuffix) {
				fmt.Fprintf(w, "%-44s missing from head output: FAIL\n", n+" "+unit)
				regressions++
				continue
			}
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			delta := 0.0
			if bm != 0 {
				delta = (hm - bm) / bm
			}
			verdict := ""
			switch unit {
			case "ns/op":
				if hm > bm*(1+nsThreshold) {
					verdict = "  FAIL (>+" + strconv.FormatFloat(nsThreshold*100, 'f', -1, 64) + "%)"
					regressions++
				}
			case "B/op":
				if hm > bm*(1+bytesThreshold) && hm > bm+bytesSlack {
					verdict = fmt.Sprintf("  FAIL (B/op >+%g%% and >+%g B)", bytesThreshold*100, bytesSlack)
					regressions++
				}
			case "allocs/op":
				if hm > bm+allocSlack {
					verdict = "  FAIL (allocs/op increased)"
					regressions++
				}
			default: // a count
				if hm > bm {
					verdict = "  FAIL (count increased)"
					regressions++
				}
			}
			fmt.Fprintf(w, "%-44s %14s %14s %+7.1f%%%s\n",
				n+" "+unit, fmtVal(bm), fmtVal(hm), delta*100, verdict)
		}
	}
	for n := range head {
		if _, ok := base[n]; !ok {
			fmt.Fprintf(w, "%-44s (new benchmark, not gated)\n", n)
		}
	}
	return regressions
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
