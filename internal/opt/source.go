// Package opt closes the paper's loop: it consumes the static frequency
// estimates (and measured profiles) to drive the optimizations the paper
// argues they are good enough for — call-site inlining, Pettis–Hansen
// style code layout, and spill-cost weighting — and measures how closely
// estimate-driven decisions agree with profile-driven ones.
package opt

import (
	"fmt"

	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/profile"
)

// SourceKinds lists every frequency-source name the optimizers accept:
// the three static estimators, the self profile (aggregate of all
// inputs), and the cross-input profile (aggregate of held-out inputs).
var SourceKinds = []string{"loop", "smart", "markov", "profile", "xprof"}

// EstimateKinds lists the static estimator sources only.
var EstimateKinds = []string{"loop", "smart", "markov"}

// LiveSourceName names the frequency source built from a unit's live
// ingest aggregate (the fleet's crowd-sourced cross-input profile).
const LiveSourceName = "live"

// ServingSourceKinds is SourceKinds plus the live-aggregate source —
// the set the serving layer's /v1/optimize accepts.
var ServingSourceKinds = append(append([]string{}, SourceKinds...), LiveSourceName)

// Source is a frequency source an optimizer consumes: absolute block,
// function-invocation, and call-site frequencies, plus per-edge
// frequencies derived from them. Estimate sources and measured profiles
// present the same interface, so every optimizer is parameterized by
// where its frequencies come from — the comparison at the heart of the
// paper.
type Source struct {
	Name string

	// Block[f][b] is the absolute execution frequency of block b of
	// function f (per-entry estimate × invocation estimate for static
	// sources; measured counts for profile sources).
	Block [][]float64

	// Func[f] is the invocation frequency of function f.
	Func []float64

	// Site[s] is the execution frequency of call site s. Indirect sites
	// are zero under estimate sources (they cannot be inlined).
	Site []float64

	edge func(fi int, blk *cfg.Block) []float64
}

// EdgeFreq returns the frequencies of blk's outgoing edges, parallel to
// blk.Succs (nil for TermReturn blocks).
func (s *Source) EdgeFreq(fi int, blk *cfg.Block) []float64 {
	return s.edge(fi, blk)
}

// EstimateSource builds a frequency source from one of the static
// estimator ladders: "loop" (loop nesting only, call_site invocations),
// "smart" (branch heuristics, direct invocations — the paper's headline
// estimator), or "markov" (linear-system intra + Markov call chain).
func EstimateSource(cp *cfg.Program, est *core.Estimates, kind string) (*Source, error) {
	var intra []*core.IntraResult
	var inv []float64
	switch kind {
	case "loop":
		intra, inv = est.IntraLoop, est.Inter.CallSite
	case "smart":
		intra, inv = est.IntraSmart, est.Inter.Direct
	case "markov":
		intra, inv = est.IntraMarkov, est.InterMarkov.Inv
	default:
		return nil, fmt.Errorf("opt: unknown estimate source %q (have loop, smart, markov)", kind)
	}
	sp := cp.Sem
	s := &Source{
		Name:  kind,
		Block: make([][]float64, len(sp.Funcs)),
		Func:  inv,
		Site:  make([]float64, len(sp.CallSites)),
	}
	for fi := range sp.Funcs {
		bf := intra[fi].BlockFreq
		abs := make([]float64, len(bf))
		for b, f := range bf {
			abs[b] = f * inv[fi]
		}
		s.Block[fi] = abs
	}
	for _, site := range sp.CallSites {
		if site.Indirect() {
			continue
		}
		blk := est.SiteBlocks[site.ID]
		if blk == nil {
			continue // unreachable code
		}
		fi := site.Caller.Obj.FuncIndex
		if blk.ID < len(intra[fi].BlockFreq) {
			s.Site[site.ID] = intra[fi].BlockFreq[blk.ID] * inv[fi]
		}
	}
	// The loop ladder's transition model is ArcProbs without predictions.
	conf, pred := est.Config, est.Pred
	if kind == "loop" {
		pred = nil
	}
	s.edge = func(fi int, blk *cfg.Block) []float64 {
		return scaleProbs(core.ArcProbs(blk, pred, conf), s.Block[fi][blk.ID])
	}
	return s, nil
}

func scaleProbs(probs []float64, k float64) []float64 {
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = p * k
	}
	return out
}

// ProfileSource builds a frequency source from a measured profile (one
// run, or an aggregate). Edge frequencies come from the recorded branch
// outcomes and switch arms; unconditional edges carry the block's count.
func ProfileSource(cp *cfg.Program, p *profile.Profile, name string) *Source {
	s := &Source{
		Name:  name,
		Block: p.BlockCounts,
		Func:  p.FuncCalls,
		Site:  p.CallSiteCounts,
	}
	s.edge = func(fi int, blk *cfg.Block) []float64 {
		switch blk.Term {
		case cfg.TermJump:
			if len(blk.Succs) == 1 {
				return []float64{p.BlockCounts[fi][blk.ID]}
			}
			return nil
		case cfg.TermCond:
			if blk.BranchSite >= 0 && blk.BranchSite < len(p.BranchTaken) {
				return []float64{p.BranchTaken[blk.BranchSite], p.BranchNot[blk.BranchSite]}
			}
			// A conditional without a recorded site: split its count.
			c := p.BlockCounts[fi][blk.ID] / 2
			return []float64{c, c}
		case cfg.TermSwitch:
			if blk.SwitchSite >= 0 && blk.SwitchSite < len(p.SwitchArm) {
				arms := p.SwitchArm[blk.SwitchSite]
				if len(arms) == len(blk.Succs) {
					return arms
				}
			}
			out := make([]float64, len(blk.Succs))
			c := p.BlockCounts[fi][blk.ID] / float64(len(blk.Succs))
			for i := range out {
				out[i] = c
			}
			return out
		}
		return nil // TermReturn
	}
	return s
}
