package core_test

import (
	"fmt"
	"math"
	"testing"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/gen"
	"staticest/internal/suite"
)

// refWalker is the AST walk as it was before sem numbered statements:
// it records every statement's frequency in a map keyed by the node, so
// a block whose first statement or anchor belongs to another function
// (an inlined clone, a callee's anchor) misses by identity. The
// slice-indexed walk in intra.go must agree with it bit for bit.
type refWalker struct {
	preds *core.Predictions
	conf  core.Config
	freq  map[cast.Stmt]float64
}

func refWalk(fd *cast.FuncDecl, preds *core.Predictions, conf core.Config) map[cast.Stmt]float64 {
	w := &refWalker{preds: preds, conf: conf, freq: make(map[cast.Stmt]float64)}
	w.walk(fd.Body, 1.0)
	return w.freq
}

// refIntraAST is core.IntraAST over refWalk's map.
func refIntraAST(g *cfg.Graph, preds *core.Predictions, conf core.Config) []float64 {
	freq := refWalk(g.Fn, preds, conf)
	out := make([]float64, len(g.Blocks))
	for i, blk := range g.Blocks {
		out[i] = 1.0
		if len(blk.Stmts) > 0 {
			if f, ok := freq[blk.Stmts[0]]; ok {
				out[i] = f
				continue
			}
		}
		if blk.Anchor != nil {
			if f, ok := freq[blk.Anchor]; ok {
				out[i] = f
			}
		}
	}
	return out
}

func (w *refWalker) probTrue(bs cast.BranchStmt) float64 {
	id := bs.BranchID()
	if w.preds == nil || id < 0 || id >= len(w.preds.Branch) {
		return 0.5
	}
	return w.preds.Branch[id].ProbTrue
}

func (w *refWalker) armProbs(sw *cast.Switch, nArms int) []float64 {
	if w.preds != nil && sw.Branch >= 0 && sw.Branch < len(w.preds.Switch) {
		return w.preds.Switch[sw.Branch]
	}
	probs := make([]float64, nArms)
	for i := range probs {
		probs[i] = 1 / float64(nArms)
	}
	return probs
}

func (w *refWalker) walk(s cast.Stmt, f float64) {
	if s == nil {
		return
	}
	w.freq[s] = f
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
		w.freq[s] = f * w.conf.LoopCount
		w.walk(x.Body, f*(w.conf.LoopCount-1))
	case *cast.DoWhile:
		w.freq[s] = f * w.conf.LoopCount
		w.walk(x.Body, f*(w.conf.LoopCount-1))
	case *cast.For:
		w.freq[s] = f * w.conf.LoopCount
		if x.InitS != nil {
			w.freq[x.InitS] = f
		}
		if x.PostS != nil {
			w.freq[x.PostS] = f * (w.conf.LoopCount - 1)
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

// sameBits reports whether two frequency vectors are equal as float64
// bit patterns, and the first index where they differ.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkAgainstRef compares both AST estimators of every function of u
// with the reference walk: every block frequency bit for bit, and, for
// the smart estimator, every statement frequency StmtFreqOf reports.
func checkAgainstRef(t *testing.T, name string, u *staticest.Unit) {
	t.Helper()
	conf := core.DefaultConfig()
	est := u.Estimate()
	for fi, g := range u.CFG.Graphs {
		for _, c := range []struct {
			name  string
			preds *core.Predictions
			got   []float64
		}{
			{"loop", nil, est.IntraLoop[fi].BlockFreq},
			{"smart", est.Pred, est.IntraSmart[fi].BlockFreq},
		} {
			want := refIntraAST(g, c.preds, conf)
			if i, ok := sameBits(c.got, want); !ok {
				if i < 0 {
					t.Fatalf("%s: %s %s: %d blocks, reference %d", name, g.Fn.Name(), c.name, len(c.got), len(want))
				}
				t.Fatalf("%s: %s %s block %d: %v, reference %v", name, g.Fn.Name(), c.name, i, c.got[i], want[i])
			}
		}
		sf := est.StmtFreqOf(g)
		for s, want := range refWalk(g.Fn, est.Pred, conf) {
			if got, ok := sf.Of(s); !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s: statement %q: %v (found %t), reference %v", name, g.Fn.Name(), cast.StmtLabel(s), got, ok, want)
			}
		}
	}
}

// TestASTWalkMatchesReference checks the slice-indexed AST walk against
// the map-based reference on the suite, on generated programs, and on
// each suite program after inlining its smart-source plan, where cloned
// callee blocks bring statements of other functions into a graph.
func TestASTWalkMatchesReference(t *testing.T) {
	cloned := 0
	for _, p := range suite.Programs() {
		u, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, p.Name, u)

		src, err := u.EstimateFreqSource("smart")
		if err != nil {
			t.Fatal(err)
		}
		inl, res, err := u.Inline(u.PlanInline(src, 0))
		if err != nil {
			t.Fatalf("%s: inline: %v", p.Name, err)
		}
		cloned += res.BlocksCloned
		checkAgainstRef(t, p.Name+" inlined", inl)
	}
	if cloned == 0 {
		t.Error("the suite's smart plans cloned no blocks: no foreign statements were checked")
	}
	for seed := 0; seed < 2000; seed++ {
		name := fmt.Sprintf("gen%d.c", seed)
		u, err := staticest.Compile(name, gen.Source(int64(seed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstRef(t, name, u)
	}
}
