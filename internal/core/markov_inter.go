package core

import (
	"math"

	"staticest/internal/callgraph"
	"staticest/internal/graphs"
	"staticest/internal/linalg"
)

// MarkovInterResult reports the Markov call-graph estimate along with
// diagnostics about the repairs the paper describes.
type MarkovInterResult struct {
	// Inv is the invocation-frequency estimate per function (main = 1
	// unit of injected flow).
	Inv []float64
	// PointerFlow is the estimated flow through the synthetic pointer
	// node (0 when the program has no indirect calls).
	PointerFlow float64
	// ClampedSelfArcs counts direct-recursion arcs clamped from >= 1 to
	// the standard value.
	ClampedSelfArcs int
	// RepairedSCCs counts strongly-connected components whose arc
	// weights had to be scaled down before the global system solved.
	RepairedSCCs int
}

// EstimateInterMarkov models the call graph as a Markov chain (Section
// 5.2 of the paper): nodes are functions plus a synthetic pointer node
// for indirect calls, arcs carry per-entry call-site frequencies, main is
// injected with frequency 1, and the linear system is solved. Invalid
// systems (negative frequencies from over-unity recursion) are repaired
// per the paper: clamp direct-recursive arcs, then scale down
// strongly-connected components until each sub-solution is valid.
func EstimateInterMarkov(cg *callgraph.Graph, local []float64, conf Config) *MarkovInterResult {
	sp := cg.Prog
	n := len(sp.Funcs)
	res := &MarkovInterResult{}
	if n == 0 {
		return res
	}

	// Does the program need a pointer node?
	hasIndirect := false
	for _, site := range sp.CallSites {
		if site.Indirect() {
			hasIndirect = true
			break
		}
	}
	usePtr := hasIndirect && len(cg.AddrTaken) > 0
	nn := n
	ptrNode := -1
	if usePtr {
		ptrNode = n
		nn = n + 1
	}

	// Arc weights w[from][to], merged per function pair.
	w := make([]map[int]float64, nn)
	for i := range w {
		w[i] = make(map[int]float64)
	}
	for _, site := range sp.CallSites {
		f := site.Caller.Obj.FuncIndex
		weight := local[site.ID]
		if weight == 0 {
			continue
		}
		if site.Indirect() {
			if usePtr {
				w[f][ptrNode] += weight
			}
			continue
		}
		if g := site.Callee.FuncIndex; g >= 0 {
			w[f][g] += weight
		}
	}
	if usePtr {
		total := 0.0
		for _, at := range cg.AddrTaken {
			total += float64(at.Count)
		}
		for _, at := range cg.AddrTaken {
			w[ptrNode][at.FuncIndex] = float64(at.Count) / total
		}
	}

	// Paper fix 1: a direct-recursion arc with weight >= 1 would mean
	// the function never returns; clamp to the standard value.
	for i := 0; i < nn; i++ {
		if sw, ok := w[i][i]; ok && sw >= 1 {
			w[i][i] = conf.RecursionClamp
			res.ClampedSelfArcs++
		}
	}

	mainIdx := cg.MainIndex()
	if mainIdx < 0 {
		mainIdx = 0
	}

	x, ok := solveChain(nn, w, mainIdx)
	if !ok {
		// Paper fix 2: repair each recursive SCC in isolation, scaling
		// its arc weights down until the sub-solution is valid, then
		// re-solve the whole graph.
		adj := make([][]int, nn)
		for i := 0; i < nn; i++ {
			for j := range w[i] {
				adj[i] = append(adj[i], j)
			}
		}
		for _, comp := range graphs.SCC(nn, adj) {
			if !graphs.IsRecursiveComp(comp, adj) {
				continue
			}
			if repairSCC(comp, w, conf) {
				res.RepairedSCCs++
			}
		}
		x, ok = solveChain(nn, w, mainIdx)
		if !ok {
			// Last resort: clamp whatever the (possibly partial)
			// solution produced; callers still get a ranking.
			if x == nil {
				x = make([]float64, nn)
				x[mainIdx] = 1
			}
		}
	}
	for i := range x {
		if x[i] < 0 || math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			x[i] = 0
		}
	}
	res.Inv = x[:n]
	if usePtr {
		res.PointerFlow = x[ptrNode]
	}
	return res
}

// solveChain solves x_i = e_i + sum_f w[f][i] * x_f with e_main = 1.
// It reports ok=false for singular systems or negative solutions; a
// negative solution is still returned, unclamped.
func solveChain(nn int, w []map[int]float64, mainIdx int) ([]float64, bool) {
	nArcs := 0
	for f := 0; f < nn; f++ {
		nArcs += len(w[f])
	}
	arcs := make([]linalg.Arc, 0, nArcs)
	for f := 0; f < nn; f++ {
		for g, weight := range w[f] {
			arcs = append(arcs, linalg.Arc{From: f, To: g, P: weight})
		}
	}
	b := make([]float64, nn)
	b[mainIdx] = 1
	x, err := linalg.SolveFlow(nn, arcs, b)
	return x, err == nil
}

// repairSCC solves the component in isolation with an artificial main
// distributing external inflow m/n across members, requiring the
// solution to be non-negative and below the ceiling; arc weights inside
// the component are scaled down until it is. Reports whether any scaling
// occurred.
func repairSCC(comp []int, w []map[int]float64, conf Config) bool {
	local := make(map[int]int, len(comp)) // function → unknown
	for i, v := range comp {
		local[v] = i
	}
	// External inflow census.
	inflow := make(map[int]float64, len(comp))
	total := 0.0
	for f := range w {
		if _, in := local[f]; in {
			continue
		}
		for g, weight := range w[f] {
			if _, in := local[g]; in {
				inflow[g] += weight
				total += weight
			}
		}
	}
	k := len(comp)
	scaled := false
	b := make([]float64, k)
	var arcs []linalg.Arc
	for iter := 0; iter < 400; iter++ {
		arcs = arcs[:0]
		for i, f := range comp {
			if total > 0 {
				b[i] = inflow[f] / total
			} else {
				b[i] = 1 / float64(k)
			}
			for g, weight := range w[f] {
				if j, in := local[g]; in && weight != 0 {
					arcs = append(arcs, linalg.Arc{From: i, To: j, P: weight})
				}
			}
		}
		x, err := linalg.SolveFlow(k, arcs, b)
		valid := err == nil
		for _, v := range x {
			if v > conf.SCCCeiling {
				valid = false
			}
		}
		if valid {
			return scaled
		}
		// Scale down every arc inside the component.
		for _, f := range comp {
			for g := range w[f] {
				if _, in := local[g]; in {
					w[f][g] *= conf.SCCScaleStep
				}
			}
		}
		scaled = true
	}
	return scaled
}
