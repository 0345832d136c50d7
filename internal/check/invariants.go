// Package check is the invariant checker and differential-oracle
// harness behind the generative test suite (cmd/stress and
// TestGenerativeSuite). Given any program the pipeline accepts — in
// practice the output of internal/gen — it verifies structural
// invariants of the static estimates (probabilities well-formed,
// heuristic directions consistent, Markov solutions conserving flow)
// and runs differential oracles across pipeline layers: full vs sparse
// profiles must reconstruct exactly, inlined programs must fold to
// identical profiles, estimates must survive semantics-preserving
// mutations, and the HTTP service must answer byte-identically to
// direct library calls.
//
// The entry points are Run (one program, all oracles) and RunAll (a
// seeded batch). Shrink reduces a failing program to a minimal
// reproducer.
package check

import (
	"fmt"
	"math"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/ctypes"
	"staticest/internal/fold"
)

// Failure is one violated invariant or oracle disagreement.
type Failure struct {
	Oracle string // "invariants", "sparse", "inline", "metamorphic", "server"
	Detail string
}

func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

// probEps absorbs float noise in probability sums; freqEps is the
// relative tolerance for flow-conservation residuals.
const (
	probEps = 1e-9
	freqEps = 1e-6
)

// Invariants checks every structural property the estimates must
// satisfy regardless of program: branch probabilities in [0,1] with
// heuristic-consistent directions, switch distributions summing to 1,
// frequencies finite and non-negative, and Markov intra solutions
// conserving flow (each block's frequency equals its probability-
// weighted inflow, plus 1 at the entry).
func Invariants(u *staticest.Unit, est *staticest.Estimates) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "invariants", Detail: fmt.Sprintf(format, args...)})
	}

	sp := u.Sem
	hi := est.Config.TakenProb
	lo := 1 - hi

	// Branch predictions: range, then direction per heuristic. The
	// direction rules mirror internal/core/branchpred.go on purpose:
	// they are how a flipped heuristic (probability still in range) is
	// caught.
	for i, bp := range est.Pred.Branch {
		if math.IsNaN(bp.ProbTrue) || bp.ProbTrue < 0 || bp.ProbTrue > 1 {
			fail("branch %d: ProbTrue %v out of [0,1]", i, bp.ProbTrue)
			continue
		}
		var cond cast.Expr
		if i < len(sp.BranchSites) {
			cond = sp.BranchSites[i].Stmt.CondExpr()
		}
		switch bp.Heuristic {
		case "const":
			if !bp.Constant {
				fail("branch %d: heuristic const without Constant", i)
			}
			want := 0.0
			if bp.ConstTrue {
				want = 1.0
			}
			if bp.ProbTrue != want {
				fail("branch %d: const %v but ProbTrue %v", i, bp.ConstTrue, bp.ProbTrue)
			}
		case "loop":
			if !sp.BranchSites[i].Stmt.IsLoop() {
				fail("branch %d: loop heuristic on a non-loop branch", i)
			}
			if bp.ProbTrue < 0.5 {
				fail("branch %d: loop continuation predicted unlikely (%v)", i, bp.ProbTrue)
			}
		case "pointer":
			if dir, ok := pointerDirection(cond); ok && dir != (bp.ProbTrue > 0.5) {
				fail("branch %d: pointer heuristic direction flipped (ProbTrue %v for %s-shape)",
					i, bp.ProbTrue, map[bool]string{true: "likely", false: "unlikely"}[dir])
			}
		case "opcode":
			if b, ok := cond.(*cast.Binary); ok {
				if b.Op == cast.Eq && bp.ProbTrue > 0.5 {
					fail("branch %d: `==` predicted likely (%v)", i, bp.ProbTrue)
				}
				if b.Op == cast.Ne && bp.ProbTrue < 0.5 {
					fail("branch %d: `!=` predicted unlikely (%v)", i, bp.ProbTrue)
				}
			}
		case "logical":
			if l, ok := cond.(*cast.Logical); ok {
				if l.AndAnd && bp.ProbTrue > 0.5 {
					fail("branch %d: `&&` condition predicted likely (%v)", i, bp.ProbTrue)
				}
				if !l.AndAnd && bp.ProbTrue < 0.5 {
					fail("branch %d: `||` condition predicted unlikely (%v)", i, bp.ProbTrue)
				}
			}
		case "call", "store", "return":
			if bp.ProbTrue != hi && bp.ProbTrue != lo {
				fail("branch %d: %s heuristic with ProbTrue %v (want %v or %v)",
					i, bp.Heuristic, bp.ProbTrue, lo, hi)
			}
		case "none":
			if bp.ProbTrue != 0.5 {
				fail("branch %d: no heuristic fired but ProbTrue %v != 0.5", i, bp.ProbTrue)
			}
		default:
			fail("branch %d: unknown heuristic %q", i, bp.Heuristic)
		}
	}

	// Switch predictions: a probability distribution per site.
	for i, probs := range est.Pred.Switch {
		sum := 0.0
		for a, p := range probs {
			if math.IsNaN(p) || p < 0 || p > 1 {
				fail("switch %d arm %d: probability %v out of [0,1]", i, a, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > probEps {
			fail("switch %d: arm probabilities sum to %v, not 1", i, sum)
		}
	}

	// Intra-procedural frequencies: finite, non-negative, entry >= 1
	// per entry unit for the AST estimators.
	for fi, g := range u.CFG.Graphs {
		name := g.Fn.Obj.Name
		for _, res := range []struct {
			kind string
			r    *core.IntraResult
		}{
			{"loop", est.IntraLoop[fi]},
			{"smart", est.IntraSmart[fi]},
			{"markov", est.IntraMarkov[fi]},
		} {
			for b, f := range res.r.BlockFreq {
				if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
					fail("%s intra %s: block b%d frequency %v", res.kind, name, b, f)
				}
			}
		}
		// Markov flow conservation only holds for true Markov solutions
		// (the AST fallback ignores breaks and early returns).
		if m := est.IntraMarkov[fi]; !m.Fallback {
			checkFlow(g, m.BlockFreq, est.Pred, est.Config, name, fail)
		}
	}

	// Invocation and call-site estimates: finite and non-negative; main
	// is invoked at least its injected unit.
	mainIdx := -1
	if sp.Main != nil {
		mainIdx = sp.Main.Obj.FuncIndex
	}
	for _, inv := range []struct {
		kind    string
		v       []float64
		perFunc bool // invocation-indexed (else call-site-indexed)
	}{
		{"call_site", est.Inter.CallSite, true},
		{"direct", est.Inter.Direct, true},
		{"all_rec", est.Inter.AllRec, true},
		{"all_rec2", est.Inter.AllRec2, true},
		{"markov", est.InterMarkov.Inv, true},
		{"site_direct", est.SiteFreqDirect, false},
		{"site_markov", est.SiteFreqMarkov, false},
	} {
		for j, f := range inv.v {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
				fail("%s estimate %d: %v", inv.kind, j, f)
			}
		}
		if inv.perFunc && mainIdx >= 0 && inv.v[mainIdx] < 1-probEps {
			fail("%s estimate: main invoked %v times, want >= 1", inv.kind, inv.v[mainIdx])
		}
	}
	return out
}

// checkFlow verifies the Markov intra solution against its own defining
// equations: freq(entry) = 1 + inflow(entry); freq(b) = inflow(b)
// elsewhere, with inflow(b) = sum over preds p of ArcProbs(p)[i]*freq(p)
// for every successor slot i of p that targets b.
func checkFlow(g *cfg.Graph, freq []float64, pred *core.Predictions, conf core.Config,
	name string, fail func(string, ...any)) {
	// Accumulate inflow from the successor side, exactly as the solver
	// builds its matrix (iterating Preds would double-count parallel
	// arcs: a branch with both arms targeting one block lists the
	// predecessor once per edge).
	inflow := make([]float64, len(g.Blocks))
	for _, blk := range g.Blocks {
		probs := core.ArcProbs(blk, pred, conf)
		for i, s := range blk.Succs {
			if i < len(probs) {
				inflow[s.ID] += probs[i] * freq[blk.ID]
			}
		}
	}
	for _, blk := range g.Blocks {
		want := inflow[blk.ID]
		if blk == g.Entry {
			want++
		}
		got := freq[blk.ID]
		if diff := math.Abs(got - want); diff > freqEps*(1+math.Abs(want)) {
			fail("markov intra %s: block b%d frequency %v, inflow says %v", name, blk.ID, got, want)
		}
	}
}

// pointerDirection reports the expected prediction direction of a
// pointer-heuristic condition (true = likely), mirroring
// core.pointerHeuristic. ok is false when the shape is not one the
// heuristic recognizes.
func pointerDirection(cond cast.Expr) (likely, ok bool) {
	isPtr := func(e cast.Expr) bool {
		t := e.Type()
		if t == nil {
			return false
		}
		return t.Kind == ctypes.Ptr || t.Kind == ctypes.Array || t.Kind == ctypes.Func
	}
	isNull := func(e cast.Expr) bool {
		c, ok := fold.Expr(e)
		return ok && !c.IsFloat && c.I == 0
	}
	switch x := cond.(type) {
	case *cast.Ident, *cast.Member, *cast.Index, *cast.Call:
		if isPtr(cond) {
			return true, true
		}
	case *cast.Unary:
		if x.Op == cast.LogNot && isPtr(x.X) {
			return false, true
		}
	case *cast.Binary:
		if x.Op == cast.Eq || x.Op == cast.Ne {
			lp, rp := isPtr(x.X), isPtr(x.Y)
			if (lp && (rp || isNull(x.Y))) || (rp && (lp || isNull(x.X))) {
				return x.Op == cast.Ne, true
			}
		}
	}
	return false, false
}

// ProfileInvariants checks a measured full-instrumentation profile for
// internal consistency: the block-count total equals the interpreter's
// step count, main ran exactly once, and every branch/switch site's
// outcome counts sum to its block's execution count.
func ProfileInvariants(u *staticest.Unit, res *staticest.RunResult) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "invariants", Detail: fmt.Sprintf(format, args...)})
	}
	p := res.Profile
	if p == nil {
		fail("full run produced no profile")
		return out
	}
	if total := p.TotalBlockCount(); total != float64(res.Steps) {
		fail("profile block total %v != interpreter steps %d", total, res.Steps)
	}
	if mi := u.Sem.Main.Obj.FuncIndex; p.FuncCalls[mi] != 1 {
		fail("main invoked %v times, want exactly 1", p.FuncCalls[mi])
	}
	for fi, g := range u.CFG.Graphs {
		for _, blk := range g.Blocks {
			n := p.BlockCounts[fi][blk.ID]
			switch blk.Term {
			case cfg.TermCond:
				// Outcomes can undershoot the block count: a condition
				// whose evaluation calls exit() executes the block but
				// never records a direction. They can never overshoot.
				if s := blk.BranchSite; s >= 0 {
					if sum := p.BranchTaken[s] + p.BranchNot[s]; sum > n {
						fail("branch %d: taken %v + not %v exceeds block count %v",
							s, p.BranchTaken[s], p.BranchNot[s], n)
					}
				}
			case cfg.TermSwitch:
				if s := blk.SwitchSite; s >= 0 {
					sum := 0.0
					for _, c := range p.SwitchArm[s] {
						sum += c
					}
					if sum > n {
						fail("switch %d: arm counts sum %v exceeds block count %v", s, sum, n)
					}
				}
			}
		}
	}
	for i, c := range p.CallSiteCounts {
		if c < 0 {
			fail("call site %d: negative count %v", i, c)
		}
	}
	return out
}

// profileDiffFailures wraps mismatch strings (probes.Diff, DiffRuns) as
// failures of one oracle.
func profileDiffFailures(oracle string, diffs []string) []Failure {
	out := make([]Failure, 0, len(diffs))
	for _, d := range diffs {
		out = append(out, Failure{Oracle: oracle, Detail: d})
	}
	return out
}
