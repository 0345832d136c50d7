package probes_test

import (
	"testing"

	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/interp"
	"staticest/internal/probes"
	"staticest/internal/sem"
)

func compile(t *testing.T, src string) *cfg.Program {
	t.Helper()
	file, err := cparse.ParseFile("test.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	cp, err := cfg.Build(sp)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return cp
}

// checkExact runs src under full and sparse instrumentation (with both
// uniform and smart placement weights) and requires the reconstructed
// profile to equal the full one exactly.
func checkExact(t *testing.T, src string, opts interp.Options) *probes.Plan {
	t.Helper()
	cp := compile(t, src)
	full, err := interp.Run(cp, opts)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	var last *probes.Plan
	for _, w := range []*probes.Weights{nil, probes.SmartWeights(cp, core.DefaultConfig())} {
		plan := probes.BuildPlan(cp, w)
		sOpts := opts
		sOpts.Instrumentation = interp.SparseInstrumentation
		sOpts.Plan = plan
		sparse, err := interp.Run(cp, sOpts)
		if err != nil {
			t.Fatalf("sparse run: %v", err)
		}
		if sparse.ExitCode != full.ExitCode {
			t.Errorf("exit code %d, want %d", sparse.ExitCode, full.ExitCode)
		}
		if string(sparse.Output) != string(full.Output) {
			t.Errorf("output diverged:\n%q\nwant:\n%q", sparse.Output, full.Output)
		}
		if sparse.Profile != nil {
			t.Errorf("sparse run returned a profile")
		}
		rec, err := probes.Reconstruct(plan, sparse.Probes, nil)
		if err != nil {
			t.Fatalf("reconstruct: %v", err)
		}
		for _, d := range probes.Diff(full.Profile, rec) {
			t.Errorf("profile diff: %s", d)
		}
		last = plan
	}
	return last
}

func TestExactLoopsBranchesCalls(t *testing.T) {
	plan := checkExact(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int classify(int x) {
	switch (x % 4) {
	case 0: return 10;
	case 1:
	case 2: return 20;
	default: return 30;
	}
}
int main(void) {
	int total = 0, i;
	for (i = 0; i < 12; i++) {
		total += fib(i % 7);
		total += classify(i);
		if (i % 3 == 0)
			total--;
	}
	printf("%d\n", total);
	return total % 5;
}`, interp.Options{})
	if plan.ProbedArcs >= plan.TotalArcs {
		t.Errorf("no arc savings: %d probes on %d arcs", plan.ProbedArcs, plan.TotalArcs)
	}
	if plan.NumProbes == 0 {
		t.Errorf("plan placed no probes at all")
	}
}

func TestExactFunctionPointers(t *testing.T) {
	checkExact(t, `
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int main(void) {
	int (*ops[2])(int, int);
	int i, acc = 0;
	ops[0] = add;
	ops[1] = sub;
	for (i = 0; i < 9; i++)
		acc = ops[i % 2](acc, i);
	printf("%d\n", acc);
	return 0;
}`, interp.Options{})
}

func TestExactExitMidBlock(t *testing.T) {
	// exit() fires three calls deep, mid-block, with several frames live:
	// every active frame was counted on block entry but never flowed out,
	// exercising the escape-trace reconstruction path.
	checkExact(t, `
int depth = 0;
void inner(int n) {
	depth = depth + 1;
	if (n == 0) {
		printf("bailing\n");
		exit(3);
	}
	inner(n - 1);
	depth = depth - 1;  /* unreached on the exiting path */
}
int main(void) {
	int i;
	for (i = 0; i < 5; i++)
		printf("%d\n", i);
	inner(4);
	printf("never\n");
	return 0;
}`, interp.Options{})
}

func TestExactExitInReturnExpression(t *testing.T) {
	// exit() inside a return-value expression: the returning block was
	// entered but must be recorded as escaped, not as having returned.
	checkExact(t, `
int boom(void) { exit(7); return 0; }
int f(int x) {
	return x + boom();
}
int main(void) {
	printf("%d\n", f(1));
	return 0;
}`, interp.Options{})
}

func TestExactConditionalCallSites(t *testing.T) {
	// Call sites under && / || / ?: execute fewer times than their block;
	// they must keep dedicated counters.
	checkExact(t, `
int calls = 0;
int bump(int v) { calls = calls + 1; return v; }
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 10; i++) {
		if (i % 2 == 0 && bump(i) > 3)
			acc++;
		acc += (i % 3 == 0) ? bump(100) : i;
		if (i > 7 || bump(-1) < 0)
			acc++;
	}
	printf("%d %d\n", acc, calls);
	return 0;
}`, interp.Options{})
}

func TestExactCallAfterExitingCall(t *testing.T) {
	// The second call in the block never runs on the input where the
	// first one exits; it must not be derived from the block count.
	checkExact(t, `
int maybe_exit(int x) {
	if (x == 3) exit(1);
	return x;
}
int tally = 0;
int note(int v) { tally = tally + v; return tally; }
int main(void) {
	int i;
	for (i = 0; i < 10; i++)
		note(maybe_exit(i));
	return 0;
}`, interp.Options{})
}

func TestExactSizeofOperandNotCounted(t *testing.T) {
	// The call inside sizeof is never evaluated; its count must stay 0
	// rather than inheriting the block count.
	checkExact(t, `
int f(void) { return 1; }
int main(void) {
	int i, n = 0;
	for (i = 0; i < 4; i++)
		n += (int)sizeof(f());
	printf("%d\n", n);
	return 0;
}`, interp.Options{})
}

func TestExactOptFactorCycles(t *testing.T) {
	// Cycle reconstruction must honor per-function cost factors: the
	// reconstructed total equals the full run's counts priced under the
	// same factors.
	cp := compile(t, `
int work(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++)
		s += i;
	return s;
}
int main(void) {
	printf("%d\n", work(50) + work(20));
	return 0;
}`)
	full, err := interp.Run(cp, interp.Options{})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	plan := probes.BuildPlan(cp, nil)
	sparse, err := interp.Run(cp, interp.Options{Instrumentation: interp.SparseInstrumentation, Plan: plan})
	if err != nil {
		t.Fatalf("sparse run: %v", err)
	}
	factor := map[int]float64{0: 0.5}
	rec, err := probes.Reconstruct(plan, sparse.Probes, factor)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	want := cfg.Cycles(cp, full.Profile.BlockCounts, factor)
	if rec.Cycles != want {
		t.Errorf("reconstructed cycles %g, want %g", rec.Cycles, want)
	}
	if want >= full.Profile.Cycles {
		t.Errorf("factored cycles %g not below the full run's %g", want, full.Profile.Cycles)
	}
}

func TestEntryArcNeverProbed(t *testing.T) {
	cp := compile(t, `
int helper(int x) { return x * 2; }
int main(void) {
	int i, s = 0;
	for (i = 0; i < 3; i++) s += helper(i);
	return s;
}`)
	plan := probes.BuildPlan(cp, nil)
	for fi := range plan.Funcs {
		fp := &plan.Funcs[fi]
		if a := fp.Arcs[fp.EntryArc]; a.Kind != probes.ArcEntry || a.Probe >= 0 {
			t.Errorf("func %d: entry arc kind=%v probe=%d; want on-forest entry arc",
				fi, a.Kind, a.Probe)
		}
	}
}

func TestReconstructRejectsWrongVector(t *testing.T) {
	cp := compile(t, `int main(void) { return 0; }`)
	plan := probes.BuildPlan(cp, nil)
	if _, err := probes.Reconstruct(plan, nil, nil); err == nil {
		t.Errorf("nil vector accepted")
	}
	bad := &probes.Vector{Counts: make([]float64, plan.NumProbes+1)}
	if _, err := probes.Reconstruct(plan, bad, nil); err == nil {
		t.Errorf("wrong-length vector accepted")
	}
}

func TestSparseRunRequiresMatchingPlan(t *testing.T) {
	cp := compile(t, `int main(void) { return 0; }`)
	other := compile(t, `int main(void) { return 1; }`)
	if _, err := interp.Run(cp, interp.Options{
		Instrumentation: interp.SparseInstrumentation,
	}); err == nil {
		t.Errorf("sparse run without a plan accepted")
	}
	if _, err := interp.Run(cp, interp.Options{
		Instrumentation: interp.SparseInstrumentation,
		Plan:            probes.BuildPlan(other, nil),
	}); err == nil {
		t.Errorf("plan for a different program accepted")
	}
}
