// Package probes implements optimal profiling instrumentation in the
// Knuth (1973) / Ball-Larus (1994) style: instead of counting every
// basic block, branch, switch arm, and call site, the planner selects a
// sparse set of counters from which the complete profile is recovered
// exactly.
//
// Per function, the CFG is viewed as a flow circulation: a virtual exit
// node collects every return, and a virtual exit→entry arc carries the
// invocation count, so flow is conserved at every node (inflow = block
// execution count = outflow). The planner weights each arc with the
// paper's smart static estimates (internal/core) and computes a
// maximum-weight spanning forest; only the off-forest arcs get probe
// counters, placing the runtime cost on the arcs predicted coldest. The
// reconstructor solves the forest arcs by peeling leaves of the flow
// conservation system, then derives every profile quantity:
//
//   - block counts     = arc inflow
//   - invocations      = virtual exit→entry arc flow
//   - branch outcomes  = flow on the two conditional arcs
//   - switch arms      = flow on each dispatch arc
//   - call-site counts = containing-block count for sites proven to
//     execute exactly once per block execution; a dedicated counter
//     otherwise (short-circuit guards, ternaries, sites following a
//     possible mid-block exit(), sizeof operands)
//
// exit() terminates a run with every active frame mid-block, which
// would break conservation; the sparse interpreter therefore records
// the escaping frames (one (function, block) pair each), and the
// reconstructor adds a unit of flow from each recorded block to the
// exit node before solving.
package probes

import (
	"math"

	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/graphs"
	"staticest/internal/obs"
)

// ArcKind classifies a planned CFG arc.
type ArcKind int

// Arc kinds.
const (
	// ArcSucc is a real control-flow arc From → From.Succs[Slot].
	ArcSucc ArcKind = iota
	// ArcExit connects a returning block (TermReturn, or a pruned
	// dead-end TermJump with no successors, which the interpreter treats
	// as a return) to the virtual exit node.
	ArcExit
	// ArcEntry is the virtual exit → entry arc whose flow is the
	// function's invocation count. It is always kept on the spanning
	// forest, so invocations cost no counter increments.
	ArcEntry
)

// Arc is one arc of a function's instrumentation graph.
type Arc struct {
	From int // block ID (ArcEntry: the virtual exit node)
	To   int // block ID (ArcExit: the virtual exit node)
	Slot int // successor slot for ArcSucc; -1 otherwise
	Kind ArcKind
	// Probe is the index of this arc's counter in the probe vector, or
	// -1 when the arc lies on the spanning forest and its flow is
	// reconstructed.
	Probe int32
	// Weight is the static frequency estimate used for placement.
	Weight float64
}

// FuncPlan is the probe plan of one function.
type FuncPlan struct {
	Arcs []Arc
	// EntryArc indexes the virtual exit→entry arc in Arcs.
	EntryArc int

	// SuccProbe[blockID][slot] is the probe index of the arc taken when
	// the block transfers to its slot-th successor, or -1 for forest
	// arcs. SuccArc holds the arc index for the same pair.
	SuccProbe [][]int32
	SuccArc   [][]int32
	// ExitProbe[blockID] / ExitArc[blockID] describe the block's arc to
	// the virtual exit node (-1 when the block does not return).
	ExitProbe []int32
	ExitArc   []int32
}

// SiteClass says how a call site's count is obtained in sparse mode.
type SiteClass uint8

// Site classes.
const (
	// SiteDerived sites execute exactly once per execution of their
	// containing block; their count is the reconstructed block count.
	SiteDerived SiteClass = iota
	// SiteProbed sites keep a dedicated counter: conditionally evaluated
	// sites (&&/|| right operands, ?: arms), sites that follow a call
	// dispatch in their block's evaluation order (an exit() in that call
	// would end the run between the block being counted and the site
	// executing), and sites inside unevaluated sizeof operands, which lie
	// in no block.
	SiteProbed
)

// SitePlan is the plan for one numbered call site.
type SitePlan struct {
	Class SiteClass
	// Func and Block locate the containing block of a derived site.
	Func, Block int
	// Probe is the counter index of a probed site, or -1.
	Probe int32
}

// Plan is a whole-program probe placement.
type Plan struct {
	prog *cfg.Program

	Funcs []FuncPlan
	Sites []SitePlan
	// SiteProbe[siteID] duplicates Sites[siteID].Probe as a flat array
	// for the interpreter's hot path.
	SiteProbe []int32

	// NumProbes is the probe vector length (arc probes + site probes).
	NumProbes int
	// TotalArcs and ProbedArcs count real CFG arcs (virtual entry arcs
	// excluded) and the subset carrying probes, across all functions.
	TotalArcs, ProbedArcs int
	// DerivedSites counts call sites whose counters were eliminated.
	DerivedSites int
}

// Program returns the CFG program the plan was built for.
func (p *Plan) Program() *cfg.Program { return p.prog }

// ArcReduction is the fraction of CFG arcs that need no probe.
func (p *Plan) ArcReduction() float64 {
	if p.TotalArcs == 0 {
		return 0
	}
	return 1 - float64(p.ProbedArcs)/float64(p.TotalArcs)
}

// Density reports the fraction of one function's real CFG arcs that
// carry a probe counter (0 for a function with no arcs).
func (p *Plan) Density(funcIndex int) float64 {
	fp := &p.Funcs[funcIndex]
	total, probed := 0, 0
	for _, a := range fp.Arcs {
		if a.Kind == ArcEntry {
			continue
		}
		total++
		if a.Probe >= 0 {
			probed++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(probed) / float64(total)
}

// Record publishes the plan's placement statistics as gauges: arc
// totals, the probed subset, call-site classification, and the spread
// of per-function counter density. No-op on a nil observer.
func (p *Plan) Record(o *obs.Observer) {
	if o == nil {
		return
	}
	o.Gauge("probes_arcs_total").Set(float64(p.TotalArcs))
	o.Gauge("probes_arcs_probed").Set(float64(p.ProbedArcs))
	o.Gauge("probes_arc_reduction").Set(p.ArcReduction())
	o.Gauge("probes_counters_total").Set(float64(p.NumProbes))
	o.Gauge("probes_sites_total").Set(float64(len(p.Sites)))
	o.Gauge("probes_sites_derived").Set(float64(p.DerivedSites))
	if len(p.Funcs) == 0 {
		return
	}
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for fi := range p.Funcs {
		d := p.Density(fi)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
		sum += d
	}
	o.Gauge("probes_func_density_min").Set(lo)
	o.Gauge("probes_func_density_max").Set(hi)
	o.Gauge("probes_func_density_mean").Set(sum / float64(len(p.Funcs)))
}

// Weights supplies the static arc-frequency estimates steering probe
// placement. Placement is exact under any weights; good weights only
// move the counters onto colder arcs.
type Weights struct {
	// BlockFreq[funcIndex][blockID] is the estimated per-entry execution
	// frequency of a block. Nil (or a missing function) means uniform.
	BlockFreq [][]float64
	// Pred supplies branch and switch-arm probabilities. Nil means the
	// loop estimator's model (core.ArcProbs with nil predictions).
	Pred *core.Predictions
}

// SmartWeights derives placement weights from the paper's smart
// estimators: AST-walk block frequencies refined by the branch and
// switch predictors.
func SmartWeights(cp *cfg.Program, conf core.Config) *Weights {
	pred := core.Predict(cp, conf)
	bf := make([][]float64, len(cp.Graphs))
	for i, g := range cp.Graphs {
		bf[i] = core.IntraAST(g, pred, conf).BlockFreq
	}
	return &Weights{BlockFreq: bf, Pred: pred}
}

// BuildPlan computes the probe placement for a program. w may be nil,
// which yields uniform block weights and the loop model's arc
// probabilities (still exact, just less optimized).
func BuildPlan(cp *cfg.Program, w *Weights) *Plan {
	if w == nil {
		w = &Weights{}
	}
	p := &Plan{prog: cp, Funcs: make([]FuncPlan, len(cp.Graphs))}
	for fi, g := range cp.Graphs {
		p.planFunc(fi, g, w)
	}
	p.planSites()
	return p
}

// planFunc builds one function's arc list, spanning forest, and probe
// tables, appending probe indices to the global counter space.
func (p *Plan) planFunc(fi int, g *cfg.Graph, w *Weights) {
	nBlocks := len(g.Blocks)
	exit := nBlocks // virtual exit node ID

	var bf []float64
	if fi < len(w.BlockFreq) {
		bf = w.BlockFreq[fi]
	}
	blockWeight := func(id int) float64 {
		if id < len(bf) {
			if f := bf[id]; !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0 {
				return f
			}
		}
		return 1
	}

	fp := &p.Funcs[fi]
	fp.SuccProbe = make([][]int32, nBlocks)
	fp.SuccArc = make([][]int32, nBlocks)
	fp.ExitProbe = make([]int32, nBlocks)
	fp.ExitArc = make([]int32, nBlocks)
	for _, blk := range g.Blocks {
		fp.ExitProbe[blk.ID] = -1
		fp.ExitArc[blk.ID] = -1
	}

	addArc := func(a Arc) int32 {
		fp.Arcs = append(fp.Arcs, a)
		return int32(len(fp.Arcs) - 1)
	}
	for _, blk := range g.Blocks {
		returns := blk.Term == cfg.TermReturn ||
			(blk.Term == cfg.TermJump && len(blk.Succs) == 0)
		if returns {
			fp.ExitArc[blk.ID] = addArc(Arc{
				From: blk.ID, To: exit, Slot: -1, Kind: ArcExit,
				Probe: -1, Weight: blockWeight(blk.ID),
			})
			continue
		}
		// The config reaches the weights only through nil predictions,
		// as the loop model's continuation probability.
		probs := core.ArcProbs(blk, w.Pred, core.DefaultConfig())
		fp.SuccProbe[blk.ID] = make([]int32, len(blk.Succs))
		fp.SuccArc[blk.ID] = make([]int32, len(blk.Succs))
		for slot, succ := range blk.Succs {
			fp.SuccArc[blk.ID][slot] = addArc(Arc{
				From: blk.ID, To: succ.ID, Slot: slot, Kind: ArcSucc,
				Probe: -1, Weight: blockWeight(blk.ID) * probs[slot],
			})
		}
	}
	// The virtual invocation arc, forced onto the forest by an infinite
	// weight: invocations are then always derived, never counted.
	fp.EntryArc = int(addArc(Arc{
		From: exit, To: g.Entry.ID, Slot: -1, Kind: ArcEntry,
		Probe: -1, Weight: math.Inf(1),
	}))

	edges := make([]graphs.WeightedEdge, len(fp.Arcs))
	for i, a := range fp.Arcs {
		edges[i] = graphs.WeightedEdge{U: a.From, V: a.To, Weight: a.Weight}
	}
	inForest := graphs.MaxSpanningForest(nBlocks+1, edges)
	for i := range fp.Arcs {
		if fp.Arcs[i].Kind != ArcEntry {
			p.TotalArcs++
		}
		if inForest[i] {
			continue
		}
		fp.Arcs[i].Probe = int32(p.NumProbes)
		p.NumProbes++
		p.ProbedArcs++
	}
	for _, blk := range g.Blocks {
		for slot := range fp.SuccProbe[blk.ID] {
			fp.SuccProbe[blk.ID][slot] = fp.Arcs[fp.SuccArc[blk.ID][slot]].Probe
		}
		if ai := fp.ExitArc[blk.ID]; ai >= 0 {
			fp.ExitProbe[blk.ID] = fp.Arcs[ai].Probe
		}
	}
}

// planSites classifies every call site and assigns counters to the
// probed ones.
func (p *Plan) planSites() {
	sp := p.prog.Sem
	p.Sites = make([]SitePlan, len(sp.CallSites))
	p.SiteProbe = make([]int32, len(sp.CallSites))
	for i := range p.Sites {
		// Sites not located in any block stay probed by default: those
		// inside sizeof operands, which never execute (sem rejects a
		// call in a global initializer).
		p.Sites[i] = SitePlan{Class: SiteProbed, Func: -1, Block: -1, Probe: -1}
	}
	for fi, g := range p.prog.Graphs {
		for _, blk := range g.Blocks {
			classifyBlockSites(fi, blk, p.Sites)
		}
	}
	for i := range p.Sites {
		if p.Sites[i].Class == SiteDerived {
			p.DerivedSites++
			p.SiteProbe[i] = -1
			continue
		}
		p.Sites[i].Probe = int32(p.NumProbes)
		p.SiteProbe[i] = p.Sites[i].Probe
		p.NumProbes++
	}
}
