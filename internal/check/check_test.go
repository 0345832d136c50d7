package check_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"staticest"
	"staticest/internal/check"
	"staticest/internal/gen"
	"staticest/internal/interp"
	"staticest/internal/suite"
)

// TestCleanBatch is the fast in-package smoke: a seeded batch passes
// every oracle (the larger batch lives in the repo root's
// TestGenerativeSuite).
func TestCleanBatch(t *testing.T) {
	fails := check.RunAll(3, 25, check.Options{ServerEvery: 10})
	for _, pf := range fails {
		t.Errorf("%s\n%s", pf, pf.Src)
	}
}

// TestShrinkSynthetic pins the reducer's contract on a synthetic
// predicate: it keeps exactly the lines the predicate needs.
func TestShrinkSynthetic(t *testing.T) {
	var lines []string
	for i := 0; i < 64; i++ {
		lines = append(lines, fmt.Sprintf("line %d", i))
	}
	lines[17] = "needle A"
	lines[49] = "needle B"
	src := []byte(strings.Join(lines, "\n"))
	failing := func(b []byte) bool {
		return bytes.Contains(b, []byte("needle A")) && bytes.Contains(b, []byte("needle B"))
	}
	got := check.Shrink(src, failing)
	if want := "needle A\nneedle B"; string(got) != want {
		t.Errorf("shrink kept %q, want %q", got, want)
	}
	// A non-failing input comes back untouched.
	if out := check.Shrink([]byte("nothing"), failing); string(out) != "nothing" {
		t.Errorf("shrink mutated a passing input: %q", out)
	}
}

// brokenLogical reports whether src, compiled and estimated with the
// deliberately flipped `&&`/`||` heuristic, trips the invariant
// checker on a logical-direction failure.
func brokenLogical(name string, src []byte) bool {
	u, err := staticest.Compile(name, src)
	if err != nil {
		return false
	}
	est := u.Estimate()
	if !check.BreakLogical(est) {
		return false
	}
	for _, f := range check.Invariants(u, est) {
		if strings.Contains(f.Detail, "predicted") {
			return true
		}
	}
	return false
}

// TestInjectedBugCaughtAndShrunk is the acceptance criterion: a
// deliberately flipped logical heuristic is caught by the invariant
// checker on generated programs, and the failing program shrinks to a
// reproducer under 30 lines.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	g := gen.New(9)
	var src []byte
	for i := 0; i < 200; i++ {
		cand := g.Program()
		if brokenLogical("inject.c", cand) {
			src = cand
			break
		}
	}
	if src == nil {
		t.Fatal("no generated program tripped the flipped logical heuristic in 200 tries")
	}
	small := check.Shrink(src, func(b []byte) bool { return brokenLogical("inject.c", b) })
	if !brokenLogical("inject.c", small) {
		t.Fatal("shrunk program no longer reproduces")
	}
	nLines := bytes.Count(bytes.TrimRight(small, "\n"), []byte("\n")) + 1
	t.Logf("shrunk from %d to %d lines:\n%s",
		bytes.Count(src, []byte("\n")), nLines, small)
	if nLines >= 30 {
		t.Errorf("reproducer is %d lines, want < 30:\n%s", nLines, small)
	}
}

// TestCleanEstimatesPassInvariants double-checks the injected-bug test
// proves something: the same programs pass when nothing is injected.
func TestCleanEstimatesPassInvariants(t *testing.T) {
	g := gen.New(9)
	for i := 0; i < 50; i++ {
		src := g.Program()
		u, err := staticest.Compile("clean.c", src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if fs := check.Invariants(u, u.Estimate()); len(fs) > 0 {
			t.Fatalf("program %d: clean estimates fail invariants: %v\n%s", i, fs, src)
		}
	}
}

// TestOracleSelection pins Options.Oracles filtering and the "all"
// alias.
func TestOracleSelection(t *testing.T) {
	src := gen.Source(21)
	if fs := check.Run("sel.c", src, check.Options{Oracles: []string{"invariants"}}); len(fs) > 0 {
		t.Errorf("invariants-only run failed: %v", fs)
	}
	if fs := check.Run("sel.c", src, check.Options{Oracles: []string{"all"}}); len(fs) > 0 {
		t.Errorf("all-oracle run failed: %v", fs)
	}
}

// TestBatchOracle runs the batch-vs-sequential equivalence check
// directly: on a generated program and on a real suite program, a batch
// response must be byte-identical per item to sequential single calls.
func TestBatchOracle(t *testing.T) {
	if fs := check.BatchOracle("batch_gen.c", gen.Source(11)); len(fs) > 0 {
		t.Errorf("generated program: %v", fs)
	}
	p, err := suite.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	if fs := check.BatchOracle(p.Name+".c", []byte(p.Source)); len(fs) > 0 {
		t.Errorf("suite program: %v", fs)
	}
}

// TestReuseOracleSuite runs the reuse oracle over suite programs with
// array accesses, on their real inputs — the measured stack-distance
// accounting must hold on full-size traces, not just generated toys.
func TestReuseOracleSuite(t *testing.T) {
	for _, name := range []string{"compress", "eqntott", "cholesky"} {
		p, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		u, err := staticest.Compile(p.Name+".c", []byte(p.Source))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := p.Inputs[0]
		for _, f := range check.ReuseOracle(u, staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}) {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// TestDiffRuns feeds DiffRuns synthetic results, each a real run with
// one observable changed, and checks that it reports that difference
// and no other: a run equal to the reference, or a sparse run whose
// vector reconstructs the reference's profile, reports nothing.
func TestDiffRuns(t *testing.T) {
	u, err := staticest.Compile("diff.c", []byte(`
int main(void) {
	int i, s = 0;
	for (i = 0; i < 6; i++)
		if (i % 3) s += i;
	printf("%d\n", s);
	return s;
}`))
	if err != nil {
		t.Fatal(err)
	}
	plan := u.PlanProbes()
	full, err := u.Run(staticest.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := u.Run(staticest.RunOptions{Instrumentation: staticest.SparseInstrumentation, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if d := check.DiffRuns(full, full, nil); len(d) > 0 {
		t.Errorf("a full run against itself: %q", d)
	}
	if d := check.DiffRuns(full, sparse, plan); len(d) > 0 {
		t.Errorf("a sparse run against its full run: %q", d)
	}
	if len(sparse.Probes.Counts) == 0 {
		t.Fatal("the plan placed no probe")
	}
	withCounts := func(counts []float64) *staticest.ProbeVector {
		return &staticest.ProbeVector{Counts: counts, Escapes: sparse.Probes.Escapes}
	}
	for _, tc := range []struct {
		name string
		run  *staticest.RunResult // the run under test
		edit func(r *staticest.RunResult)
		want string // the prefix of every reported line
	}{
		{"exit code", full, func(r *staticest.RunResult) { r.ExitCode++ }, "exit code: 12 vs 13"},
		{"output", full, func(r *staticest.RunResult) { r.Output = []byte("13\n") }, "output differs"},
		{"steps", full, func(r *staticest.RunResult) { r.Steps++ }, "steps: "},
		{"memory trace", full, func(r *staticest.RunResult) {
			r.MemTrace = []interp.MemAccess{{Addr: 1, Ref: 0}}
		}, "memory trace differs (0 accesses vs 1)"},
		{"full profile", full, func(r *staticest.RunResult) {
			r.Profile = r.Profile.Clone()
			r.Profile.BranchTaken[0]++
		}, "profile: branch taken 0: "},
		{"probe vector", sparse, func(r *staticest.RunResult) {
			counts := slices.Clone(r.Probes.Counts)
			counts[0]++
			r.Probes = withCounts(counts)
		}, "profile: "},
		{"vector length", sparse, func(r *staticest.RunResult) {
			r.Probes = withCounts(r.Probes.Counts[:len(r.Probes.Counts)-1])
		}, "reconstruct: probes: vector has "},
	} {
		r := *tc.run
		tc.edit(&r)
		d := check.DiffRuns(full, &r, plan)
		if len(d) == 0 {
			t.Errorf("%s: no difference reported", tc.name)
		}
		for _, line := range d {
			if !strings.HasPrefix(line, tc.want) {
				t.Errorf("%s: reported %q, want lines starting %q", tc.name, line, tc.want)
			}
		}
	}
}
