package probes

import (
	"fmt"

	"staticest/internal/cfg"
	"staticest/internal/profile"
)

// Escape records one stack frame that was still active when exit()
// ended the run: the function's current block was counted on entry but
// never flowed out through a terminator arc. The reconstructor restores
// conservation by adding one unit of flow from that block to the
// virtual exit node.
type Escape struct {
	Func  int
	Block int
}

// Vector is the raw output of a sparse-instrumentation run.
type Vector struct {
	// Counts is the probe vector, indexed by Plan probe indices.
	Counts []float64
	// Escapes lists the frames unwound by exit(), outermost first
	// (empty for runs that return from main normally).
	Escapes []Escape
}

// Increments is the total number of counter increments the run
// performed (each probe bump adds exactly 1).
func (v *Vector) Increments() float64 {
	var t float64
	for _, c := range v.Counts {
		t += c
	}
	return t
}

// Reconstruct recovers the complete profile of a sparse run: every
// block count, function invocation count, branch outcome, switch-arm
// count, and call-site count, plus the simulated cycle total, exactly
// as full instrumentation would have reported them. optFactor is the
// per-function cost factor cfg.Cycles prices the counts with; nil
// prices every function as a full run does.
func Reconstruct(plan *Plan, vec *Vector, optFactor map[int]float64) (*profile.Profile, error) {
	if vec == nil {
		return nil, fmt.Errorf("probes: nil probe vector")
	}
	if len(vec.Counts) != plan.NumProbes {
		return nil, fmt.Errorf("probes: vector has %d counters, plan wants %d",
			len(vec.Counts), plan.NumProbes)
	}
	blocksPerFunc, numSites, numBranches, switchArms := cfg.ProfileShape(plan.prog)
	p := profile.New(blocksPerFunc, numSites, numBranches, switchArms)

	escapes := make(map[int][]int) // funcIdx -> escaped block IDs
	for _, e := range vec.Escapes {
		if e.Func < 0 || e.Func >= len(plan.Funcs) {
			return nil, fmt.Errorf("probes: escape in unknown function %d", e.Func)
		}
		escapes[e.Func] = append(escapes[e.Func], e.Block)
	}

	for fi := range plan.Funcs {
		flows, err := solveFunc(plan, fi, vec.Counts, escapes[fi])
		if err != nil {
			return nil, err
		}
		fillProfile(plan, fi, flows, p)
	}

	// Call sites: derived from block counts where proven safe, counted
	// directly otherwise.
	for id := range plan.Sites {
		s := &plan.Sites[id]
		if s.Class == SiteDerived {
			p.CallSiteCounts[id] = p.BlockCounts[s.Func][s.Block]
		} else if s.Probe >= 0 {
			p.CallSiteCounts[id] = vec.Counts[s.Probe]
		}
	}

	p.Cycles = cfg.Cycles(plan.prog, p.BlockCounts, optFactor)
	return p, nil
}

// solveFunc recovers every arc flow of one function. Probed arcs are
// read from the vector; forest arcs are solved by peeling leaves of the
// flow-conservation system (each node's inflow equals its outflow once
// escape flow to the virtual exit is accounted for).
func solveFunc(plan *Plan, fi int, counts []float64, escaped []int) ([]float64, error) {
	fp := &plan.Funcs[fi]
	nNodes := len(plan.prog.Graphs[fi].Blocks) + 1
	exit := nNodes - 1

	flows := make([]float64, len(fp.Arcs))
	solved := make([]bool, len(fp.Arcs))
	// net[v] accumulates known inflow minus known outflow.
	net := make([]float64, nNodes)
	// incident[v] lists unsolved arcs touching v; degree[v] counts them.
	incident := make([][]int32, nNodes)
	degree := make([]int, nNodes)

	apply := func(i int, f float64) {
		if f == 0 {
			f = 0 // normalize the -0.0 a balanced node can produce
		}
		flows[i], solved[i] = f, true
		net[fp.Arcs[i].To] += f
		net[fp.Arcs[i].From] -= f
	}
	for i, a := range fp.Arcs {
		if a.Probe >= 0 {
			apply(i, counts[a.Probe])
			continue
		}
		if a.From == a.To {
			// A self-loop is never on the forest; defensive only.
			return nil, fmt.Errorf("probes: self-loop arc on spanning forest (func %d)", fi)
		}
		incident[a.From] = append(incident[a.From], int32(i))
		incident[a.To] = append(incident[a.To], int32(i))
		degree[a.From]++
		degree[a.To]++
	}
	for _, blk := range escaped {
		if blk < 0 || blk >= exit {
			return nil, fmt.Errorf("probes: escape from unknown block %d (func %d)", blk, fi)
		}
		net[blk]--
		net[exit]++
	}

	// Leaf peeling over the spanning forest.
	queue := make([]int, 0, nNodes)
	for v := 0; v < nNodes; v++ {
		if degree[v] == 1 {
			queue = append(queue, v)
		}
	}
	remaining := 0
	for _, s := range solved {
		if !s {
			remaining++
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if degree[v] != 1 {
			continue
		}
		var ai int32 = -1
		for _, i := range incident[v] {
			if !solved[i] {
				ai = i
				break
			}
		}
		if ai < 0 {
			continue
		}
		a := fp.Arcs[ai]
		// Choose the flow that balances v; the other endpoint absorbs it.
		if a.To == v {
			apply(int(ai), -net[v])
		} else {
			apply(int(ai), net[v])
		}
		remaining--
		degree[v]--
		other := a.From
		if other == v {
			other = a.To
		}
		degree[other]--
		if degree[other] == 1 {
			queue = append(queue, other)
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("probes: %d unsolved forest arcs in function %d (cycle in forest?)",
			remaining, fi)
	}
	return flows, nil
}

// fillProfile converts one function's arc flows into profile counts.
func fillProfile(plan *Plan, fi int, flows []float64, p *profile.Profile) {
	fp := &plan.Funcs[fi]
	g := plan.prog.Graphs[fi]
	exit := len(g.Blocks)

	// Block counts are arc inflows (the virtual entry arc delivers the
	// invocation flow to the entry block).
	for i, a := range fp.Arcs {
		if a.To != exit {
			p.BlockCounts[fi][a.To] += flows[i]
		}
	}
	p.FuncCalls[fi] = flows[fp.EntryArc]

	for _, blk := range g.Blocks {
		switch blk.Term {
		case cfg.TermCond:
			if blk.BranchSite >= 0 && len(blk.Succs) == 2 {
				p.BranchTaken[blk.BranchSite] = flows[fp.SuccArc[blk.ID][0]]
				p.BranchNot[blk.BranchSite] = flows[fp.SuccArc[blk.ID][1]]
			}
		case cfg.TermSwitch:
			if blk.SwitchSite >= 0 {
				arms := p.SwitchArm[blk.SwitchSite]
				for slot := range blk.Succs {
					if slot < len(arms) {
						arms[slot] = flows[fp.SuccArc[blk.ID][slot]]
					}
				}
			}
		}
	}
}
