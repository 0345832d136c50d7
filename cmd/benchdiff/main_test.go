package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseLine(t *testing.T) {
	name, vals, ok := parseLine("BenchmarkInterpretCompress-8   30   17000000 ns/op   107027 blocks/run   244 allocs/op")
	if !ok || name != "BenchmarkInterpretCompress" {
		t.Fatalf("parseLine: name %q ok %v", name, ok)
	}
	if vals["ns/op"] != 17000000 || vals["allocs/op"] != 244 {
		t.Errorf("vals = %v", vals)
	}
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  \tstaticest\t9.502s",
		"BenchmarkX-8 garbage ns/op",
	} {
		if _, _, ok := parseLine(bad); ok {
			t.Errorf("parseLine(%q) unexpectedly parsed", bad)
		}
	}
	// Sub-benchmark names keep their slash path; only the GOMAXPROCS
	// suffix is stripped.
	name, _, ok = parseLine("BenchmarkProbeProfiling/sparse-16 30 100 ns/op")
	if !ok || name != "BenchmarkProbeProfiling/sparse" {
		t.Errorf("sub-benchmark name = %q ok %v", name, ok)
	}
}

func TestMedianAggregation(t *testing.T) {
	p, err := parseFile(writeBench(t, "m.bench", `
BenchmarkX-8 10 100 ns/op 5 allocs/op
BenchmarkX-8 10 300 ns/op 5 allocs/op
BenchmarkX-8 10 200 ns/op 6 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := median(p["BenchmarkX"]["ns/op"]); got != 200 {
		t.Errorf("median ns/op = %v, want 200", got)
	}
	if got := median(p["BenchmarkX"]["allocs/op"]); got != 5 {
		t.Errorf("median allocs/op = %v, want 5", got)
	}
}

func TestDiffGates(t *testing.T) {
	base := map[string]samples{
		"BenchmarkA": {"ns/op": {100}, "allocs/op": {10}},
		"BenchmarkB": {"ns/op": {100}, "allocs/op": {10}},
		"BenchmarkC": {"ns/op": {100}, "allocs/op": {10}},
		"BenchmarkD": {"ns/op": {100}, "allocs/op": {10}},
	}
	head := map[string]samples{
		"BenchmarkA": {"ns/op": {110}, "allocs/op": {11}}, // within both gates
		"BenchmarkB": {"ns/op": {130}, "allocs/op": {10}}, // ns/op regression
		"BenchmarkC": {"ns/op": {90}, "allocs/op": {20}},  // allocs regression
		// BenchmarkD missing: gate narrowing must fail
		"BenchmarkE": {"ns/op": {1}, "allocs/op": {1}}, // new, not gated
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if got := diff(devnull, base, head, 0.15); got != 3 {
		t.Errorf("diff regressions = %d, want 3 (ns/op, allocs/op, missing)", got)
	}
	if got := diff(devnull, base, base, 0.15); got != 0 {
		t.Errorf("self-diff regressions = %d, want 0", got)
	}
}

// TestBytesGate checks the B/op gate on bench files: a median rise
// fails only when it is both more than 10% and more than 1 KiB.
func TestBytesGate(t *testing.T) {
	base, err := parseFile(writeBench(t, "base.bench", `
BenchmarkSmallRise-2     10  100 ns/op     1000000 B/op  5 allocs/op
BenchmarkLargeRise-2     10  100 ns/op     1000000 B/op  5 allocs/op
BenchmarkTinyBench-2     10  100 ns/op         100 B/op  1 allocs/op
BenchmarkTinyGrows-2     10  100 ns/op         100 B/op  1 allocs/op
BenchmarkShrinks-2       10  100 ns/op     8473318 B/op  5 allocs/op
BenchmarkOutlier-2       10  100 ns/op     1000000 B/op  5 allocs/op
BenchmarkNoBytes-2       10  100 ns/op  5 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	head, err := parseFile(writeBench(t, "head.bench", `
BenchmarkSmallRise-2     10  100 ns/op     1050000 B/op  5 allocs/op
BenchmarkLargeRise-2     10  100 ns/op     1200000 B/op  5 allocs/op
BenchmarkTinyBench-2     10  100 ns/op        1000 B/op  1 allocs/op
BenchmarkTinyGrows-2     10  100 ns/op        2000 B/op  1 allocs/op
BenchmarkShrinks-2       10  100 ns/op      300000 B/op  5 allocs/op
BenchmarkOutlier-2       10  100 ns/op     1000000 B/op  5 allocs/op
BenchmarkOutlier-2       10  100 ns/op     9000000 B/op  5 allocs/op
BenchmarkOutlier-2       10  100 ns/op     1000000 B/op  5 allocs/op
BenchmarkNoBytes-2       10  100 ns/op  5 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// LargeRise (+20%, +200 kB) and TinyGrows (+1,900%, +1,900 B) fail;
	// SmallRise (+5%), TinyBench (+900 B), Shrinks, and Outlier (whose
	// median did not move) pass.
	if got := diff(devnull, base, head, 0.15); got != 2 {
		t.Errorf("diff regressions = %d, want 2 (LargeRise, TinyGrows)", got)
	}
}

func TestParseFileRejectsEmpty(t *testing.T) {
	if _, err := parseFile(writeBench(t, "empty.bench", "PASS\nok\tx\t1s\n")); err == nil {
		t.Error("parseFile accepted output with no Benchmark lines")
	}
}

// TestCountGate checks the */run gate on bench files: any rise of a
// count's median fails, a count only the head reports is not gated, and
// a count the head drops fails.
func TestCountGate(t *testing.T) {
	base, err := parseFile(writeBench(t, "base.bench", `
BenchmarkRises-2     10  100 ns/op   1000 instrs/run   5 allocs/op
BenchmarkFalls-2     10  100 ns/op   1000 instrs/run  200 blocks/run  5 allocs/op
BenchmarkSame-2      10  100 ns/op   561028 increments/run  5 allocs/op
BenchmarkOutlier-2   10  100 ns/op   29981 accesses/run  5 allocs/op
BenchmarkNew-2       10  100 ns/op   107027 blocks/run  5 allocs/op
BenchmarkDropped-2   10  100 ns/op   107027 blocks/run  5 allocs/op
BenchmarkOther-2     10  100 ns/op   59.38 arc_reduction%  5 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	head, err := parseFile(writeBench(t, "head.bench", `
BenchmarkRises-2     10  100 ns/op   1001 instrs/run   5 allocs/op
BenchmarkFalls-2     10  100 ns/op    900 instrs/run  199 blocks/run  5 allocs/op
BenchmarkSame-2      10  100 ns/op   561028 increments/run  5 allocs/op
BenchmarkOutlier-2   10  100 ns/op   29981 accesses/run  5 allocs/op
BenchmarkOutlier-2   10  100 ns/op   99999 accesses/run  5 allocs/op
BenchmarkOutlier-2   10  100 ns/op   29981 accesses/run  5 allocs/op
BenchmarkNew-2       10  100 ns/op   107027 blocks/run  999999 instrs/run  5 allocs/op
BenchmarkDropped-2   10  100 ns/op   5 allocs/op
BenchmarkOther-2     10  100 ns/op   10 arc_reduction%  5 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// Rises (+1 instruction) and Dropped fail; Falls, Same, Outlier
	// (whose median did not move), New (instrs/run is head-only) and
	// Other (not a count) pass.
	if got := diff(devnull, base, head, 0.15); got != 2 {
		t.Errorf("diff regressions = %d, want 2 (Rises, Dropped)", got)
	}
}
