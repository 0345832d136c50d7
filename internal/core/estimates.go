package core

import (
	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
)

// Estimates bundles every static estimate the paper produces for one
// program.
type Estimates struct {
	Config Config
	Pred   *Predictions

	// Intra-procedural block frequencies, one IntraResult per function
	// (normalized to one function entry).
	IntraLoop   []*IntraResult
	IntraSmart  []*IntraResult
	IntraMarkov []*IntraResult

	// SiteBlocks locates each call site's containing block. SiteLocal is
	// each site's frequency per entry of its caller under the smart AST
	// estimator (used by the simple invocation estimators, per the
	// paper's "sum of the basic block counts of its call sites");
	// SiteLocalMarkov is the same under the Markov intra estimator,
	// which models explicit transfers of control and therefore feeds the
	// Markov call-graph chain.
	SiteBlocks      []*cfg.Block
	SiteLocal       []float64
	SiteLocalMarkov []float64

	// Function invocation estimates.
	Inter       *InterSimple
	InterMarkov *MarkovInterResult

	// Global call-site frequency estimates (indirect sites excluded,
	// i.e. left at zero): local frequency × caller invocation estimate.
	SiteFreqDirect []float64
	SiteFreqMarkov []float64
}

// EstimateAll runs the complete estimator suite.
func EstimateAll(cp *cfg.Program, cg *callgraph.Graph, conf Config) *Estimates {
	sp := cp.Sem
	e := &Estimates{Config: conf, Pred: Predict(cp, conf)}

	n := len(sp.Funcs)
	e.IntraLoop = make([]*IntraResult, n)
	e.IntraSmart = make([]*IntraResult, n)
	e.IntraMarkov = make([]*IntraResult, n)
	for i, g := range cp.Graphs {
		e.IntraLoop[i] = IntraAST(g, nil, conf)
		e.IntraSmart[i] = IntraAST(g, e.Pred, conf)
		e.IntraMarkov[i] = IntraMarkov(g, e.Pred, conf)
	}

	e.SiteBlocks = SiteLocations(cp)
	e.SiteLocal = siteLocalFreq(sp, e.SiteBlocks, e.IntraSmart)
	e.SiteLocalMarkov = siteLocalFreq(sp, e.SiteBlocks, e.IntraMarkov)

	e.Inter = EstimateInterSimple(cg, e.SiteLocal, conf)
	e.InterMarkov = EstimateInterMarkov(cg, e.SiteLocalMarkov, conf)

	// Global call-site rankings combine the smart per-entry site
	// frequencies with each invocation estimator ("combining our intra-
	// and inter-procedural heuristics", Section 5.3). The Markov chain
	// itself uses the Markov-intra weights above; the site ranking uses
	// the smart weights, as the paper's Figure 9 does.
	e.SiteFreqDirect = siteGlobalFreq(cg, e.SiteLocal, e.Inter.Direct)
	e.SiteFreqMarkov = siteGlobalFreq(cg, e.SiteLocal, e.InterMarkov.Inv)
	return e
}

// siteGlobalFreq combines intra- and inter-procedural estimates into a
// global call-site ranking: each direct site's frequency is its local
// (per-entry) frequency times its caller's invocation estimate.
// Indirect sites are excluded (they cannot be inlined) and stay zero.
func siteGlobalFreq(cg *callgraph.Graph, local, inv []float64) []float64 {
	sp := cg.Prog
	out := make([]float64, len(sp.CallSites))
	for _, site := range sp.CallSites {
		if site.Indirect() {
			continue
		}
		out[site.ID] = local[site.ID] * inv[site.Caller.Obj.FuncIndex]
	}
	return out
}

// StmtFreqOf returns the smart AST-walk statement frequencies of a
// function (the annotation Figure 3 of the paper prints).
func (e *Estimates) StmtFreqOf(funcIndex int) map[cast.Stmt]float64 {
	return e.IntraSmart[funcIndex].StmtFreq
}
