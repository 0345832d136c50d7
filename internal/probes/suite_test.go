package probes_test

import (
	"testing"

	"staticest"
	"staticest/internal/suite"
)

// TestSuiteSparseExactness is the subsystem's differential acceptance
// test: for every suite program and every input, a sparse run's
// reconstructed profile must equal the full-instrumentation profile
// exactly (block counts, invocations, branch outcomes, switch arms,
// call-site counts, and cycles, under exact float comparison). It also
// checks the placement quality bar: averaged across the suite, probes
// must sit on strictly fewer than half of all CFG arcs.
func TestSuiteSparseExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("suite differential test skipped in -short mode")
	}
	var reductionSum float64
	var programs int
	for _, p := range suite.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			unit, err := p.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			plan := unit.PlanProbes()
			if plan.TotalArcs == 0 {
				t.Fatalf("plan has no arcs")
			}
			probed := float64(plan.ProbedArcs) / float64(plan.TotalArcs)
			t.Logf("%s: %d/%d arcs probed (%.1f%%), %d/%d call sites derived",
				p.Name, plan.ProbedArcs, plan.TotalArcs, 100*probed,
				plan.DerivedSites, len(plan.Sites))
			reductionSum += probed
			programs++

			for _, in := range p.Inputs {
				full, err := unit.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
				if err != nil {
					t.Fatalf("%s: full run: %v", in.Name, err)
				}
				sparse, err := unit.Run(staticest.RunOptions{
					Args: in.Args, Stdin: in.Stdin,
					Instrumentation: staticest.SparseInstrumentation,
					Plan:            plan,
				})
				if err != nil {
					t.Fatalf("%s: sparse run: %v", in.Name, err)
				}
				if sparse.ExitCode != full.ExitCode ||
					string(sparse.Output) != string(full.Output) {
					t.Errorf("%s: sparse run diverged behaviorally", in.Name)
				}
				rec, err := staticest.Reconstruct(plan, sparse.Probes)
				if err != nil {
					t.Fatalf("%s: reconstruct: %v", in.Name, err)
				}
				diffs := staticest.DiffProfiles(full.Profile, rec)
				for _, d := range diffs {
					t.Errorf("%s: profile diff: %s", in.Name, d)
				}
				if len(diffs) > 0 {
					return
				}
			}
		})
	}
	if programs > 0 {
		avg := reductionSum / float64(programs)
		t.Logf("suite average: %.1f%% of arcs probed", 100*avg)
		if avg >= 0.5 {
			t.Errorf("average probed-arc fraction %.3f; want < 0.5", avg)
		}
	}
}
