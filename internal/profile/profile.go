// Package profile defines the dynamic count vectors produced by the
// profiling interpreter and the aggregation the paper uses to score
// profile-based estimation (normalize each profile to a common total
// block count, then sum).
package profile

import "fmt"

// Profile holds the dynamic execution counts of one program run.
// Counts are stored as float64 so normalized aggregates and raw counts
// share one representation.
type Profile struct {
	Label string // usually the input name

	// BlockCounts[funcIndex][blockID] is the execution count of a basic
	// block.
	BlockCounts [][]float64

	// FuncCalls[funcIndex] is the number of invocations of the function.
	FuncCalls []float64

	// CallSiteCounts[siteID] is the number of executions of a call site.
	CallSiteCounts []float64

	// BranchTaken/BranchNot count the outcomes of each two-way branch
	// site (the condition evaluating true / false).
	BranchTaken []float64
	BranchNot   []float64

	// SwitchArm[switchSiteID][armIndex] counts switch dispatches.
	SwitchArm [][]float64

	// Cycles is the simulated cost of the run: its block counts priced
	// by the interpreter's cost model (cfg.Cycles).
	Cycles float64
}

// New allocates an empty profile shaped for a program with the given
// dimensions. switchArms[i] is the arm count of switch site i.
func New(blocksPerFunc []int, numSites, numBranches int, switchArms []int) *Profile {
	p := &Profile{
		BlockCounts:    make([][]float64, len(blocksPerFunc)),
		FuncCalls:      make([]float64, len(blocksPerFunc)),
		CallSiteCounts: make([]float64, numSites),
		BranchTaken:    make([]float64, numBranches),
		BranchNot:      make([]float64, numBranches),
		SwitchArm:      make([][]float64, len(switchArms)),
	}
	for i, n := range blocksPerFunc {
		p.BlockCounts[i] = make([]float64, n)
	}
	for i, n := range switchArms {
		p.SwitchArm[i] = make([]float64, n)
	}
	return p
}

// TotalBlockCount returns the sum of all basic-block counts, the
// normalization denominator for aggregation.
func (p *Profile) TotalBlockCount() float64 {
	var t float64
	for _, f := range p.BlockCounts {
		for _, c := range f {
			t += c
		}
	}
	return t
}

// Scale multiplies every count by k, in place.
func (p *Profile) Scale(k float64) {
	for _, f := range p.BlockCounts {
		for i := range f {
			f[i] *= k
		}
	}
	scaleSlice(p.FuncCalls, k)
	scaleSlice(p.CallSiteCounts, k)
	scaleSlice(p.BranchTaken, k)
	scaleSlice(p.BranchNot, k)
	for _, a := range p.SwitchArm {
		scaleSlice(a, k)
	}
	p.Cycles *= k
}

func scaleSlice(s []float64, k float64) {
	for i := range s {
		s[i] *= k
	}
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	c := &Profile{
		Label:          p.Label,
		BlockCounts:    make([][]float64, len(p.BlockCounts)),
		FuncCalls:      append([]float64(nil), p.FuncCalls...),
		CallSiteCounts: append([]float64(nil), p.CallSiteCounts...),
		BranchTaken:    append([]float64(nil), p.BranchTaken...),
		BranchNot:      append([]float64(nil), p.BranchNot...),
		SwitchArm:      make([][]float64, len(p.SwitchArm)),
		Cycles:         p.Cycles,
	}
	for i, f := range p.BlockCounts {
		c.BlockCounts[i] = append([]float64(nil), f...)
	}
	for i, a := range p.SwitchArm {
		c.SwitchArm[i] = append([]float64(nil), a...)
	}
	return c
}

// accumulate adds q into p, which must have identical shape.
func (p *Profile) accumulate(q *Profile) error {
	if len(p.BlockCounts) != len(q.BlockCounts) ||
		len(p.CallSiteCounts) != len(q.CallSiteCounts) ||
		len(p.BranchTaken) != len(q.BranchTaken) ||
		len(p.SwitchArm) != len(q.SwitchArm) {
		return fmt.Errorf("profile: shape mismatch (%d/%d funcs, %d/%d sites, %d/%d switches)",
			len(p.BlockCounts), len(q.BlockCounts),
			len(p.CallSiteCounts), len(q.CallSiteCounts),
			len(p.SwitchArm), len(q.SwitchArm))
	}
	for i := range q.BlockCounts {
		if len(p.BlockCounts[i]) != len(q.BlockCounts[i]) {
			return fmt.Errorf("profile: func %d has %d/%d blocks",
				i, len(p.BlockCounts[i]), len(q.BlockCounts[i]))
		}
	}
	for i := range q.SwitchArm {
		if len(p.SwitchArm[i]) != len(q.SwitchArm[i]) {
			return fmt.Errorf("profile: switch %d has %d/%d arms",
				i, len(p.SwitchArm[i]), len(q.SwitchArm[i]))
		}
	}
	for i, f := range q.BlockCounts {
		for j, c := range f {
			p.BlockCounts[i][j] += c
		}
	}
	addSlice(p.FuncCalls, q.FuncCalls)
	addSlice(p.CallSiteCounts, q.CallSiteCounts)
	addSlice(p.BranchTaken, q.BranchTaken)
	addSlice(p.BranchNot, q.BranchNot)
	for i, a := range q.SwitchArm {
		addSlice(p.SwitchArm[i], a)
	}
	p.Cycles += q.Cycles
	return nil
}

func addSlice(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

// Aggregate combines profiles the way the paper scores profiling against
// held-out inputs: each profile is normalized so its total basic-block
// count equals a common value, then the normalized profiles are summed.
func Aggregate(profiles []*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: nothing to aggregate")
	}
	// Normalize everything to the first profile's total.
	ref := profiles[0].TotalBlockCount()
	if ref == 0 {
		ref = 1
	}
	agg := profiles[0].Clone()
	agg.Label = "aggregate"
	for _, q := range profiles[1:] {
		qc := q.Clone()
		if t := qc.TotalBlockCount(); t > 0 {
			qc.Scale(ref / t)
		}
		if err := agg.accumulate(qc); err != nil {
			return nil, err
		}
	}
	return agg, nil
}
