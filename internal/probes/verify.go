package probes

import (
	"fmt"

	"staticest/internal/profile"
)

// Diff compares two profiles field by field under exact float equality
// and returns a human-readable description of every mismatch (empty
// when the profiles are identical). It is the differential verifier
// behind the suite-wide sparse-vs-full test and check.DiffRuns.
func Diff(want, got *profile.Profile) []string {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < 50 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	if len(want.BlockCounts) != len(got.BlockCounts) {
		add("function count: %d vs %d", len(want.BlockCounts), len(got.BlockCounts))
		return diffs
	}
	for f := range want.BlockCounts {
		w, g := want.BlockCounts[f], got.BlockCounts[f]
		if len(w) != len(g) {
			add("func %d block count: %d vs %d", f, len(w), len(g))
			continue
		}
		for b := range w {
			if w[b] != g[b] {
				add("func %d block %d: %v vs %v", f, b, w[b], g[b])
			}
		}
	}
	diffVec(&diffs, add, "invocations", want.FuncCalls, got.FuncCalls)
	diffVec(&diffs, add, "call site", want.CallSiteCounts, got.CallSiteCounts)
	diffVec(&diffs, add, "branch taken", want.BranchTaken, got.BranchTaken)
	diffVec(&diffs, add, "branch not", want.BranchNot, got.BranchNot)
	if len(want.SwitchArm) != len(got.SwitchArm) {
		add("switch count: %d vs %d", len(want.SwitchArm), len(got.SwitchArm))
	} else {
		for s := range want.SwitchArm {
			diffVec(&diffs, add, fmt.Sprintf("switch %d arm", s),
				want.SwitchArm[s], got.SwitchArm[s])
		}
	}
	if want.Cycles != got.Cycles {
		add("cycles: %v vs %v", want.Cycles, got.Cycles)
	}
	return diffs
}

func diffVec(diffs *[]string, add func(string, ...any), label string, w, g []float64) {
	if len(w) != len(g) {
		add("%s length: %d vs %d", label, len(w), len(g))
		return
	}
	for i := range w {
		if w[i] != g[i] {
			add("%s %d: %v vs %v", label, i, w[i], g[i])
		}
	}
}
