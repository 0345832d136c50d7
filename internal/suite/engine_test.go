package suite_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"staticest"
	"staticest/internal/check"
	"staticest/internal/interp"
	"staticest/internal/suite"
)

// checkRuns runs opts through interp.RunReference (the tree-walking
// reference, full instrumentation) and through Run (the bytecode
// engine) in full mode, and, when plan is non-nil, in sparse mode with
// plan too. It fails the test unless every bytecode run matches the
// reference on every observable check.DiffRuns compares — exit code,
// output bytes, step count, memory trace, and the full profile, which
// a sparse run's probe vector must reconstruct exactly.
func checkRuns(t *testing.T, u *staticest.Unit, label string, opts staticest.RunOptions, plan *staticest.ProbePlan) {
	t.Helper()
	ref, err := interp.RunReference(u.CFG, opts)
	if err != nil {
		t.Fatalf("%s: tree engine: %v", label, err)
	}
	compare := func(mode string, o staticest.RunOptions) {
		got, err := u.Run(o)
		if err != nil {
			t.Fatalf("%s/%s: bytecode engine: %v", label, mode, err)
		}
		for _, d := range check.DiffRuns(ref, got, o.Plan) {
			t.Errorf("%s/%s: %s", label, mode, d)
		}
	}
	compare("full", opts)
	if plan != nil {
		opts.Instrumentation, opts.Plan = staticest.SparseInstrumentation, plan
		compare("sparse", opts)
	}
}

// TestEngineDifferential is the bytecode engine's ground truth: on every
// suite program and every input, the bytecode lowering must reproduce
// the tree-walking evaluator's observable behaviour exactly — full
// profiles and memory traces included — and a sparse run's probe
// vector, exit() escape list included, must reconstruct the
// evaluator's full profile.
//
// The runs share the suite's programs, which are built once per
// process, so when they are done the suite must still equal a freshly
// built one: no run writes a program's source or inputs.
func TestEngineDifferential(t *testing.T) {
	t.Cleanup(func() {
		fresh := []*suite.Program{
			suite.Alvinn(), suite.Compress(), suite.Ear(), suite.Eqntott(), suite.Espresso(),
			suite.GCC(), suite.SC(), suite.Xlisp(), suite.Awk(), suite.Bison(),
			suite.Cholesky(), suite.GS(), suite.MPEG(), suite.Water(),
		}
		if !reflect.DeepEqual(suite.Programs(), fresh) {
			t.Error("the shared suite differs from a freshly built one after every input ran")
		}
	})
	for _, p := range suite.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := p.CompileCached()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			plan := u.PlanProbes()
			refs := u.ReuseTable().RefIndex()
			inputs := p.Inputs
			if p.TimingInput != nil {
				inputs = append(append([]suite.Input{}, inputs...), *p.TimingInput)
			}
			for _, in := range inputs {
				checkRuns(t, u, in.Name, staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}, plan)
			}
			// Memory tracing on one input is enough per program: the trace
			// hook sites are static, so one traced run exercises them all.
			in := inputs[0]
			checkRuns(t, u, in.Name+"/traced", staticest.RunOptions{
				Args: in.Args, Stdin: in.Stdin, MemRefs: refs,
			}, nil)
		})
	}
}

// TestEngineStepCap checks that the step checkpoint stops a run
// identically on both engines: an exhausted step budget, and a
// cancelled context polled after 2^14 block executions, each fail the
// run with the same error text under the reference and under the
// bytecode engine, full and sparse.
func TestEngineStepCap(t *testing.T) {
	p := suite.Compress()
	u, err := p.CompileCached()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan := u.PlanProbes()
	in := p.Inputs[0]
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		opts staticest.RunOptions
		want string
	}{
		{"budget", staticest.RunOptions{MaxSteps: 1000}, "step budget exceeded (1000 block executions)"},
		{"cancelled", staticest.RunOptions{Ctx: cancelled}, "run cancelled: context canceled"},
	} {
		opts := tc.opts
		opts.Args, opts.Stdin = in.Args, in.Stdin
		_, treeErr := interp.RunReference(u.CFG, opts)
		if treeErr == nil {
			t.Fatalf("%s: tree run did not stop", tc.name)
		}
		sparse := opts
		sparse.Instrumentation, sparse.Plan = staticest.SparseInstrumentation, plan
		for _, run := range []struct {
			mode string
			opts staticest.RunOptions
		}{{"full", opts}, {"sparse", sparse}} {
			_, bcErr := u.Run(run.opts)
			if bcErr == nil {
				t.Fatalf("%s/%s: bytecode run did not stop", tc.name, run.mode)
			}
			if treeErr.Error() != bcErr.Error() {
				t.Errorf("%s/%s: errors differ: tree %q, bytecode %q", tc.name, run.mode, treeErr, bcErr)
			}
			if !strings.Contains(bcErr.Error(), tc.want) {
				t.Errorf("%s/%s: error %q, want it to contain %q", tc.name, run.mode, bcErr, tc.want)
			}
		}
	}
}

// TestSparseNotSlower is the paper's economic claim carried through the
// bytecode engine: on every suite program, sparse instrumentation (the
// optimal probe placement) must not run slower than full
// instrumentation. Machine noise on shared runners dwarfs the real gap,
// so the measurement is paired and order-balanced — alternating
// full/sparse runs, best-of-N on each side — with a tolerance and a
// retry before declaring a regression. The precise regression detector
// is the bench-gate CI job; this test pins the direction.
func TestSparseNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	const (
		pairs     = 5
		tolerance = 1.10
		attempts  = 4
	)
	for _, p := range suite.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			u, err := p.CompileCached()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			plan := u.PlanProbes()
			in := heaviestInput(t, u, p)
			fullOpts := staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}
			sparseOpts := staticest.RunOptions{
				Args: in.Args, Stdin: in.Stdin,
				Instrumentation: staticest.SparseInstrumentation,
				Plan:            plan,
			}
			reps := 1
			run := func(opts staticest.RunOptions) time.Duration {
				start := time.Now()
				for r := 0; r < reps; r++ {
					if _, err := u.Run(opts); err != nil {
						t.Fatalf("input %s: %v", in.Name, err)
					}
				}
				return time.Since(start)
			}
			// Warm up both lowerings so compile cost stays out of the
			// timing, and batch short programs so each sample is long
			// enough to resolve above timer and scheduler noise.
			single := run(fullOpts)
			run(sparseOpts)
			for reps < 8 && time.Duration(reps)*single < 10*time.Millisecond {
				reps++
			}
			var lastFull, lastSparse time.Duration
			for attempt := 1; attempt <= attempts; attempt++ {
				// Flush garbage from earlier tests (and earlier attempts)
				// so a collection doesn't land inside one side's samples.
				runtime.GC()
				full, sparse := time.Duration(1<<62), time.Duration(1<<62)
				for i := 0; i < pairs; i++ {
					if i%2 == 0 {
						full = min(full, run(fullOpts))
						sparse = min(sparse, run(sparseOpts))
					} else {
						sparse = min(sparse, run(sparseOpts))
						full = min(full, run(fullOpts))
					}
				}
				lastFull, lastSparse = full, sparse
				if float64(sparse) <= float64(full)*tolerance {
					return
				}
			}
			t.Errorf("sparse %v slower than full %v (best of %d pairs, %d attempts, tolerance %.0f%%)",
				lastSparse, lastFull, pairs, attempts, (tolerance-1)*100)
		})
	}
}

// heaviestInput picks the program input executing the most blocks, so
// the timing comparison runs long enough to resolve above timer and
// scheduler noise.
func heaviestInput(t *testing.T, u *staticest.Unit, p *suite.Program) suite.Input {
	t.Helper()
	best, bestSteps := p.Inputs[0], int64(-1)
	for _, in := range p.Inputs {
		res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
		if err != nil {
			t.Fatalf("input %s: %v", in.Name, err)
		}
		if res.Steps > bestSteps {
			best, bestSteps = in, res.Steps
		}
	}
	return best
}
