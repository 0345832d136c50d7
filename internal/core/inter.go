package core

import (
	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/sem"
)

// SiteLocations maps every numbered call site to the CFG block containing
// it, so intra-procedural block frequencies translate to per-entry
// call-site frequencies.
func SiteLocations(cp *cfg.Program) []*cfg.Block {
	out := make([]*cfg.Block, len(cp.Sem.CallSites))
	record := func(blk *cfg.Block, e cast.Expr) {
		cast.WalkExpr(e, func(x cast.Expr) bool {
			if c, ok := x.(*cast.Call); ok && c.SiteID >= 0 {
				out[c.SiteID] = blk
			}
			return true
		})
	}
	for _, g := range cp.Graphs {
		for _, blk := range g.Blocks {
			for _, s := range blk.Stmts {
				cast.StmtExprs(s, func(e cast.Expr) { record(blk, e) })
			}
			if blk.Cond != nil {
				record(blk, blk.Cond)
			}
			if blk.Tag != nil {
				record(blk, blk.Tag)
			}
			if blk.RetVal != nil {
				record(blk, blk.RetVal)
			}
		}
	}
	return out
}

// siteLocalFreq computes each call site's frequency per single entry of
// its containing function, from per-function block frequencies.
func siteLocalFreq(sp *sem.Program, siteBlocks []*cfg.Block, intra []*IntraResult) []float64 {
	out := make([]float64, len(sp.CallSites))
	for _, site := range sp.CallSites {
		blk := siteBlocks[site.ID]
		if blk == nil {
			continue // unreachable code
		}
		fi := site.Caller.Obj.FuncIndex
		if blk.ID < len(intra[fi].BlockFreq) {
			out[site.ID] = intra[fi].BlockFreq[blk.ID]
		}
	}
	return out
}

// invFromSites computes the paper's call_site estimator: each function's
// invocation estimate is the sum of the (intra-procedural) frequencies of
// its call sites. Indirect-call flow is pooled and divided among
// address-taken functions in proportion to their static address-of
// counts. siteScale optionally scales each caller's sites (all_rec2 uses
// the caller's invocation estimate); nil means unscaled.
func invFromSites(cg *callgraph.Graph, local []float64, siteScale []float64) []float64 {
	sp := cg.Prog
	n := len(sp.Funcs)
	inv := make([]float64, n)
	// main is invoked once by the environment; without this, estimators
	// that rescale by caller frequency (all_rec2) zero out every
	// function reachable only from main.
	if m := cg.MainIndex(); m >= 0 {
		inv[m] = 1
	}
	indirectPool := 0.0
	for _, site := range sp.CallSites {
		w := local[site.ID]
		if siteScale != nil {
			w *= siteScale[site.Caller.Obj.FuncIndex]
		}
		if site.Indirect() {
			indirectPool += w
			continue
		}
		if idx := site.Callee.FuncIndex; idx >= 0 {
			inv[idx] += w
		}
	}
	if indirectPool > 0 && len(cg.AddrTaken) > 0 {
		total := 0.0
		for _, at := range cg.AddrTaken {
			total += float64(at.Count)
		}
		if total > 0 {
			for _, at := range cg.AddrTaken {
				inv[at.FuncIndex] += indirectPool * float64(at.Count) / total
			}
		}
	}
	return inv
}

// InterSimple computes the four simple invocation estimators from the
// paper: call_site, direct, all_rec, and all_rec2.
type InterSimple struct {
	CallSite []float64
	Direct   []float64
	AllRec   []float64
	AllRec2  []float64
}

// EstimateInterSimple runs the simple estimators over smart
// intra-procedural frequencies.
func EstimateInterSimple(cg *callgraph.Graph, local []float64, conf Config) *InterSimple {
	n := len(cg.Prog.Funcs)
	base := invFromSites(cg, local, nil)

	direct := append([]float64(nil), base...)
	for i := 0; i < n; i++ {
		if cg.DirectlyRecursive(i) {
			direct[i] *= conf.RecursionScale
		}
	}

	recursive := cg.InRecursiveSCC()
	allRec := append([]float64(nil), base...)
	for i := 0; i < n; i++ {
		if recursive[i] {
			allRec[i] *= conf.RecursionScale
		}
	}

	// all_rec2: use the all_rec invocation counts to scale each caller's
	// block (and therefore call-site) frequencies, then re-apply.
	allRec2 := invFromSites(cg, local, allRec)

	return &InterSimple{
		CallSite: base,
		Direct:   direct,
		AllRec:   allRec,
		AllRec2:  allRec2,
	}
}
