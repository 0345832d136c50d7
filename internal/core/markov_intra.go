package core

import (
	"staticest/internal/cfg"
	"staticest/internal/linalg"
)

// ArcProbs returns the outgoing transition probabilities of a block:
// probs[i] is the probability of taking Succs[i]. It is the one
// transition model of every estimator. With preds it is the smart
// model: predicted branch and switch-arm probabilities. With nil preds
// it is the loop model: 50/50 ifs, loop continuation at 1 − 1/LoopCount
// and uniform switch arms. Returns on a TermReturn block leave the
// chain (no outgoing mass).
func ArcProbs(blk *cfg.Block, preds *Predictions, conf Config) []float64 {
	switch blk.Term {
	case cfg.TermJump:
		if len(blk.Succs) == 1 {
			return []float64{1}
		}
		return nil
	case cfg.TermCond:
		p := 0.5
		if preds != nil && blk.BranchSite >= 0 && blk.BranchSite < len(preds.Branch) {
			p = preds.Branch[blk.BranchSite].ProbTrue
		} else if blk.Origin != cfg.FromIf {
			p = conf.loopContinueProb()
		}
		return []float64{p, 1 - p}
	case cfg.TermSwitch:
		if preds != nil && blk.SwitchSite >= 0 && blk.SwitchSite < len(preds.Switch) {
			probs := preds.Switch[blk.SwitchSite]
			if len(probs) == len(blk.Succs) {
				return probs
			}
		}
		out := make([]float64, len(blk.Succs))
		for i := range out {
			out[i] = 1 / float64(len(blk.Succs))
		}
		return out
	}
	return nil // TermReturn
}

// IntraMarkov models the function's CFG as a Markov chain: the entry
// block has frequency 1 plus inflow, every other block's frequency is
// the probability-weighted sum of its predecessors' frequencies, and the
// resulting linear system is solved exactly. When the system is singular
// (a loop with no exit) or produces negative or non-finite frequencies,
// the paper's AST estimate is used as a fallback and Fallback is set.
func IntraMarkov(g *cfg.Graph, preds *Predictions, conf Config) *IntraResult {
	n := len(g.Blocks)
	if n == 0 {
		return &IntraResult{}
	}
	nArcs := 0
	for _, blk := range g.Blocks {
		nArcs += len(blk.Succs)
	}
	arcs := make([]linalg.Arc, 0, nArcs)
	for _, blk := range g.Blocks {
		probs := ArcProbs(blk, preds, conf)
		for i, s := range blk.Succs {
			if i < len(probs) && probs[i] != 0 {
				arcs = append(arcs, linalg.Arc{From: blk.ID, To: s.ID, P: probs[i]})
			}
		}
	}
	inflow := make([]float64, n)
	inflow[g.Entry.ID] = 1
	x, err := linalg.SolveFlow(n, arcs, inflow)
	if err != nil {
		res := IntraAST(g, preds, conf)
		res.Fallback = true
		return res
	}
	return &IntraResult{BlockFreq: x}
}
