package core

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
)

// IntraResult holds one estimator's relative block frequencies for one
// function, normalized to a single function entry.
type IntraResult struct {
	// BlockFreq is indexed by CFG block ID.
	BlockFreq []float64
	// Fallback marks a Markov run that fell back to the AST estimate
	// (singular or invalid system).
	Fallback bool
}

// IntraAST computes the paper's AST-based block-frequency estimate for
// one function. With nil preds it is the "loop" estimator (loop nesting
// only, 50/50 branches, uniform switch arms); with preds it is the
// "smart" estimator, refined by the branch and switch predictions. The
// walk deliberately ignores break, continue, goto, and return, as the
// paper's AST model does.
func IntraAST(g *cfg.Graph, preds *Predictions, conf Config) *IntraResult {
	var w astWalker
	return w.intra(g, preds, conf)
}

// StmtFreqs holds one function's AST-walk statement frequencies, indexed
// by sem's statement numbers (cast.Stmt.Number).
type StmtFreqs struct {
	fn   int
	freq []float64
}

// Of returns the frequency of s. It reports false for a statement of
// another function, such as a block the inliner cloned from a callee,
// and for one sem did not number.
func (sf *StmtFreqs) Of(s cast.Stmt) (float64, bool) {
	fn, n := s.Number()
	if fn != sf.fn {
		return 0, false
	}
	return sf.freq[n], true
}

// astWalker runs the AST walk. Its statement frequencies are scratch
// for IntraAST, so one walker reused across functions reuses their
// slice; the walk writes every numbered statement of the function.
type astWalker struct {
	preds *Predictions
	conf  Config
	out   StmtFreqs
}

// walkFunc runs the walk over fd's body, leaving the frequency of every
// statement in it in w.out.
func (w *astWalker) walkFunc(fd *cast.FuncDecl, preds *Predictions, conf Config) {
	freq := w.out.freq[:0]
	if cap(freq) < fd.NumStmts {
		freq = make([]float64, fd.NumStmts)
	}
	*w = astWalker{preds: preds, conf: conf, out: StmtFreqs{fn: fd.Obj.FuncIndex, freq: freq[:fd.NumStmts]}}
	w.walk(fd.Body, 1.0)
}

// intra is IntraAST on w's scratch.
func (w *astWalker) intra(g *cfg.Graph, preds *Predictions, conf Config) *IntraResult {
	w.walkFunc(g.Fn, preds, conf)
	res := &IntraResult{BlockFreq: make([]float64, len(g.Blocks))}
	for i, blk := range g.Blocks {
		res.BlockFreq[i] = w.out.blockFreq(blk)
	}
	return res
}

// set records the frequency of s, a statement of the walked function.
func (w *astWalker) set(s cast.Stmt, f float64) {
	_, n := s.Number()
	w.out.freq[n] = f
}

// probTrue returns the probability the branch condition holds, per the
// active estimator (0.5 for "loop", predicted for "smart").
func (w *astWalker) probTrue(bs cast.BranchStmt) float64 {
	id := bs.BranchID()
	if w.preds == nil || id < 0 || id >= len(w.preds.Branch) {
		return 0.5
	}
	return w.preds.Branch[id].ProbTrue
}

func (w *astWalker) armProbs(sw *cast.Switch, nArms int) []float64 {
	if w.preds != nil && sw.Branch >= 0 && sw.Branch < len(w.preds.Switch) {
		return w.preds.Switch[sw.Branch]
	}
	probs := make([]float64, nArms)
	for i := range probs {
		probs[i] = 1 / float64(nArms)
	}
	return probs
}

func (w *astWalker) walk(s cast.Stmt, f float64) {
	if s == nil {
		return
	}
	w.set(s, f)
	switch x := s.(type) {
	case *cast.Block:
		for _, c := range x.Stmts {
			w.walk(c, f)
		}
	case *cast.If:
		p := w.probTrue(x)
		w.walk(x.Then, f*p)
		if x.Else != nil {
			w.walk(x.Else, f*(1-p))
		}
	case *cast.While:
		// The test runs LoopCount times per entry, the body one fewer.
		w.set(s, f*w.conf.LoopCount)
		w.walk(x.Body, f*(w.conf.LoopCount-1))
	case *cast.DoWhile:
		w.set(s, f*w.conf.LoopCount)
		w.walk(x.Body, f*(w.conf.LoopCount-1))
	case *cast.For:
		w.set(s, f*w.conf.LoopCount)
		if x.InitS != nil {
			w.set(x.InitS, f)
		}
		if x.PostS != nil {
			w.set(x.PostS, f*(w.conf.LoopCount-1))
		}
		w.walk(x.Body, f*(w.conf.LoopCount-1))
	case *cast.Switch:
		hasDefault := false
		for _, c := range x.Cases {
			if c.IsDefault {
				hasDefault = true
			}
		}
		n := len(x.Cases)
		if !hasDefault {
			n++
		}
		probs := w.armProbs(x, n)
		for i, c := range x.Cases {
			p := 1 / float64(n)
			if i < len(probs) {
				p = probs[i]
			}
			for _, cs := range c.Stmts {
				w.walk(cs, f*p)
			}
		}
	case *cast.Labeled:
		w.walk(x.Stmt, f)
	}
}

// blockFreq maps the AST-walk frequency onto a CFG block through its
// anchor statement. Loop condition blocks take the loop-test frequency;
// body/join blocks take their first statement's frequency.
func (sf *StmtFreqs) blockFreq(blk *cfg.Block) float64 {
	if len(blk.Stmts) > 0 {
		if f, ok := sf.Of(blk.Stmts[0]); ok {
			return f
		}
	}
	if blk.Anchor != nil {
		if f, ok := sf.Of(blk.Anchor); ok {
			// A loop's exit block anchors on the loop statement but runs
			// once per loop entry, not once per test; detect via name.
			return f
		}
	}
	// Fallback: function-entry frequency.
	return 1.0
}
