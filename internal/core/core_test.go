package core_test

import (
	"math"
	"testing"

	"staticest/internal/callgraph"
	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/sem"
)

type unit struct {
	sp  *sem.Program
	cp  *cfg.Program
	cg  *callgraph.Graph
	est *core.Estimates
}

func compile(t *testing.T, src string) *unit {
	t.Helper()
	file, err := cparse.ParseFile("t.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	cp, err := cfg.Build(sp)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	cg := callgraph.Build(sp)
	return &unit{sp: sp, cp: cp, cg: cg,
		est: core.EstimateAll(cp, cg, core.DefaultConfig())}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// --- branch predictions ------------------------------------------------------

// predictionFor compiles a snippet with one if and returns its verdict.
func predictionFor(t *testing.T, body string) core.BranchPrediction {
	t.Helper()
	u := compile(t, body)
	for _, bs := range u.sp.BranchSites {
		if !bs.Stmt.IsLoop() {
			return u.est.Pred.Branch[bs.ID]
		}
	}
	t.Fatal("no if branch found")
	return core.BranchPrediction{}
}

func TestHeuristicPointer(t *testing.T) {
	p := predictionFor(t, `
int f(int *p) { if (p == 0) return 1; return *p; }
int main(void){ return 0; }`)
	if p.Heuristic != "pointer" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("p == NULL: %+v, want pointer/0.2", p)
	}
	p = predictionFor(t, `
int f(int *p) { if (p != 0) return *p; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "pointer" || !approx(p.ProbTrue, 0.8) {
		t.Errorf("p != NULL: %+v, want pointer/0.8", p)
	}
	p = predictionFor(t, `
int f(int *p, int *q) { if (p == q) return 1; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "pointer" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("p == q: %+v, want pointer/0.2", p)
	}
	p = predictionFor(t, `
int g(int *p) { if (p) return *p; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "pointer" || !approx(p.ProbTrue, 0.8) {
		t.Errorf("if (p): %+v, want pointer/0.8", p)
	}
}

func TestHeuristicErrorCall(t *testing.T) {
	p := predictionFor(t, `
int f(int x) { if (x) { exit(1); } return x; }
int main(void){ return 0; }`)
	if p.Heuristic != "call" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("exit arm: %+v, want call/0.2", p)
	}
	// Transitive: die() wraps exit().
	p = predictionFor(t, `
void die(void) { printf("boom\n"); exit(1); }
int f(int x) { if (x) die(); return x; }
int main(void){ return 0; }`)
	if p.Heuristic != "call" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("die arm: %+v, want call/0.2 (transitive no-return)", p)
	}
}

func TestHeuristicOpcode(t *testing.T) {
	p := predictionFor(t, `
int f(int a, int b) { if (a == b) return 1; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "opcode" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("a == b: %+v, want opcode/0.2", p)
	}
	p = predictionFor(t, `
int f(int a) { if (a < 0) return 1; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "opcode" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("a < 0: %+v, want opcode/0.2", p)
	}
}

func TestHeuristicLogical(t *testing.T) {
	p := predictionFor(t, `
int f(int a, int b, int c) { if (a > 1 && b > 2 && c > 3) return 1; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "logical" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("&& chain: %+v, want logical/0.2", p)
	}
	p = predictionFor(t, `
int f(int a, int b) { if (a > 1 || b > 2) return 1; return 0; }
int main(void){ return 0; }`)
	if p.Heuristic != "logical" || !approx(p.ProbTrue, 0.8) {
		t.Errorf("|| chain: %+v, want logical/0.8", p)
	}
}

func TestHeuristicStore(t *testing.T) {
	p := predictionFor(t, `
int f(int a) {
	int hits = 0;
	if (a > 1) hits = hits + a;
	return hits;
}
int main(void){ return 0; }`)
	if p.Heuristic != "store" || !approx(p.ProbTrue, 0.8) {
		t.Errorf("store arm: %+v, want store/0.8", p)
	}
}

func TestHeuristicReturn(t *testing.T) {
	p := predictionFor(t, `
int f(int a, int b) { if (a > b) { return b; } b = a; return b; }
int main(void){ return 0; }`)
	if p.Heuristic != "return" || !approx(p.ProbTrue, 0.2) {
		t.Errorf("return arm: %+v, want return/0.2", p)
	}
}

func TestHeuristicConstant(t *testing.T) {
	u := compile(t, `
int f(void) { if (1) return 1; return 0; }
int main(void){ return 0; }`)
	p := u.est.Pred.Branch[0]
	if !p.Constant || !p.ConstTrue {
		t.Errorf("constant condition: %+v", p)
	}
}

func TestHeuristicLoop(t *testing.T) {
	u := compile(t, `
int f(int n) { while (n) n--; return 0; }
int main(void){ return 0; }`)
	p := u.est.Pred.Branch[0]
	if p.Heuristic != "loop" || !approx(p.ProbTrue, 0.8) {
		t.Errorf("loop branch: %+v, want loop/0.8", p)
	}
}

func TestHeuristicDisabling(t *testing.T) {
	src := `
int f(int a, int b) { if (a == b) return 1; return 0; }
int main(void){ return 0; }`
	u := compile(t, src)
	conf := core.DefaultConfig()
	conf.DisabledHeuristics = map[string]bool{"opcode": true}
	est := core.EstimateAll(u.cp, u.cg, conf)
	p := est.Pred.Branch[0]
	// With opcode disabled, the return heuristic picks it up instead.
	if p.Heuristic == "opcode" {
		t.Errorf("opcode fired while disabled: %+v", p)
	}
}

func TestSwitchArmWeights(t *testing.T) {
	u := compile(t, `
int f(int c) {
	switch (c) {
	case 1: case 2: case 3: return 30;
	case 4: return 10;
	default: return 0;
	}
}
int main(void){ return 0; }`)
	w := u.est.Pred.Switch[0]
	if len(w) != 3 {
		t.Fatalf("%d arms, want 3", len(w))
	}
	// Label weighting: 3 labels : 1 label : default (1) of 5.
	if !approx(w[0], 3.0/5) || !approx(w[1], 1.0/5) || !approx(w[2], 1.0/5) {
		t.Errorf("weights = %v", w)
	}
	total := w[0] + w[1] + w[2]
	if !approx(total, 1) {
		t.Errorf("weights sum to %g", total)
	}
	// Equal weighting under the ablation config.
	conf := core.DefaultConfig()
	conf.SwitchWeightByLabels = false
	est := core.EstimateAll(u.cp, u.cg, conf)
	for _, v := range est.Pred.Switch[0] {
		if !approx(v, 1.0/3) {
			t.Errorf("equal weights = %v", est.Pred.Switch[0])
		}
	}
}

// --- intra-procedural estimators ---------------------------------------------

func TestIntraLoopNesting(t *testing.T) {
	u := compile(t, `
int f(int n) {
	int i, j, s = 0;
	for (i = 0; i < n; i++)
		for (j = 0; j < n; j++)
			s++;
	return s;
}
int main(void){ return 0; }`)
	res := u.est.IntraLoop[0]
	// Block names repeat across nesting levels, so assert on the
	// multiset of frequencies: entry 1, outer test 5, inner test 20,
	// inner body 16 (and for.post at matching rates), exit 1.
	counts := map[float64]int{}
	for _, v := range res.BlockFreq {
		counts[v]++
	}
	for _, want := range []float64{1, 5, 20, 16} {
		if counts[want] == 0 {
			t.Errorf("no block with frequency %g (have %v)", want, res.BlockFreq)
		}
	}
	// The inner body must be the deepest nest: 4 * 4 = 16 body
	// executions per function entry, with the inner test at 20.
	max := 0.0
	for _, v := range res.BlockFreq {
		if v > max {
			max = v
		}
	}
	if !approx(max, 20) {
		t.Errorf("max frequency = %g, want 20", max)
	}
}

// TestArcProbsNilIsLoopModel pins nil predictions as the loop
// estimator's transition model: 50/50 ifs, loop continuation at
// 1 − 1/LoopCount, uniform switch arms, no mass out of a return.
func TestArcProbsNilIsLoopModel(t *testing.T) {
	u := compile(t, `
int f(int a) {
	int i, s = 0;
	if (a > 1) s = 1;
	for (i = 0; i < a; i++) {
		switch (a) { case 1: s++; break; case 2: s--; break; }
	}
	return s;
}
int main(void){ return 0; }`)
	conf := core.DefaultConfig()
	conf.LoopCount = 4
	seen := map[string]bool{}
	for _, blk := range u.cp.Graphs[0].Blocks {
		var shape string
		var want []float64
		switch {
		case blk.Term == cfg.TermJump:
			shape, want = "jump", []float64{1}
		case blk.Term == cfg.TermCond && blk.Origin == cfg.FromIf:
			shape, want = "if", []float64{0.5, 0.5}
		case blk.Term == cfg.TermCond:
			shape, want = "loop test", []float64{0.75, 0.25}
		case blk.Term == cfg.TermSwitch:
			// Two cases and the implicit default.
			shape, want = "switch", []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		default:
			shape = "return"
		}
		seen[shape] = true
		got := core.ArcProbs(blk, nil, conf)
		if len(got) != len(want) {
			t.Errorf("%s block b%d: ArcProbs = %v, want %v", shape, blk.ID, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s block b%d: ArcProbs = %v, want %v", shape, blk.ID, got, want)
				break
			}
		}
	}
	if len(seen) != 5 {
		t.Errorf("covered %v, want all five block shapes", seen)
	}
}

func TestIntraMarkovConservation(t *testing.T) {
	// For a branchy function, Markov frequencies must satisfy flow
	// conservation: each block's frequency equals its weighted inflow.
	u := compile(t, `
int f(int a, int b) {
	int r = 0;
	if (a > b) r = 1;
	while (a > 0) {
		a--;
		if (a == b) break;
	}
	return r;
}
int main(void){ return 0; }`)
	res := u.est.IntraMarkov[0]
	if res.Fallback {
		t.Fatal("unexpected fallback")
	}
	// Frequencies must be non-negative and the entry must be >= 1.
	g := u.cp.Graphs[0]
	for i, v := range res.BlockFreq {
		if v < 0 {
			t.Errorf("block %d has negative frequency %g", i, v)
		}
	}
	if res.BlockFreq[g.Entry.ID] < 1-1e-9 {
		t.Errorf("entry frequency %g < 1", res.BlockFreq[g.Entry.ID])
	}
}

func TestIntraMarkovFallbackOnInfiniteLoop(t *testing.T) {
	u := compile(t, `
int f(void) { for (;;) { } }
int main(void){ return 0; }`)
	if !u.est.IntraMarkov[0].Fallback {
		t.Error("infinite loop should trigger the AST fallback")
	}
}

// --- inter-procedural estimators ---------------------------------------------

func TestInterSimpleRecursion(t *testing.T) {
	u := compile(t, `
int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
int ping(int n);
int pong(int n) { if (n <= 0) return 0; return ping(n - 1); }
int ping(int n) { if (n <= 0) return 1; return pong(n - 1); }
int leaf(void) { return 7; }
int main(void) { return fact(5) + ping(9) + leaf(); }`)
	idx := map[string]int{}
	for i, fd := range u.sp.Funcs {
		idx[fd.Name()] = i
	}
	inter := u.est.Inter
	// direct scales only the self-recursive fact.
	if !approx(inter.Direct[idx["fact"]], inter.CallSite[idx["fact"]]*5) {
		t.Errorf("direct did not scale fact: %g vs %g",
			inter.Direct[idx["fact"]], inter.CallSite[idx["fact"]])
	}
	if !approx(inter.Direct[idx["ping"]], inter.CallSite[idx["ping"]]) {
		t.Error("direct scaled mutually-recursive ping")
	}
	// all_rec scales the mutual pair too.
	if !approx(inter.AllRec[idx["ping"]], inter.CallSite[idx["ping"]]*5) {
		t.Error("all_rec did not scale ping")
	}
	if !approx(inter.AllRec[idx["leaf"]], inter.CallSite[idx["leaf"]]) {
		t.Error("all_rec scaled non-recursive leaf")
	}
}

func TestInterMarkovSimpleChain(t *testing.T) {
	u := compile(t, `
int leaf(void) { return 1; }
int mid(void) { return leaf() + leaf(); }
int main(void) { return mid(); }`)
	idx := map[string]int{}
	for i, fd := range u.sp.Funcs {
		idx[fd.Name()] = i
	}
	inv := u.est.InterMarkov.Inv
	if !approx(inv[idx["main"]], 1) {
		t.Errorf("main = %g, want 1", inv[idx["main"]])
	}
	if !approx(inv[idx["mid"]], 1) {
		t.Errorf("mid = %g, want 1", inv[idx["mid"]])
	}
	if !approx(inv[idx["leaf"]], 2) {
		t.Errorf("leaf = %g, want 2 (two call sites)", inv[idx["leaf"]])
	}
}

func TestInterMarkovRecursionClamp(t *testing.T) {
	// Both recursive calls sit in the predicted arm, giving the self
	// arc weight > 1 — the paper's count_nodes example. The clamp must
	// keep the solution positive and finite.
	u := compile(t, `
struct tree { struct tree *left, *right; };
int count_nodes(struct tree *node) {
	if (node == 0) return 0;
	return count_nodes(node->left) + count_nodes(node->right) + 1;
}
int main(void) { return count_nodes(0); }`)
	if u.est.InterMarkov.ClampedSelfArcs != 1 {
		t.Errorf("clamped %d self arcs, want 1", u.est.InterMarkov.ClampedSelfArcs)
	}
	for i, v := range u.est.InterMarkov.Inv {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("func %d invocation estimate %g invalid", i, v)
		}
	}
	idx := map[string]int{}
	for i, fd := range u.sp.Funcs {
		idx[fd.Name()] = i
	}
	if u.est.InterMarkov.Inv[idx["count_nodes"]] <= 1 {
		t.Errorf("count_nodes = %g, want amplified recursion > 1",
			u.est.InterMarkov.Inv[idx["count_nodes"]])
	}
}

func TestInterMarkovPointerNode(t *testing.T) {
	u := compile(t, `
int alpha(void) { return 1; }
int beta(void) { return 2; }
int (*table[3])(void) = {alpha, beta, alpha};
int main(void) {
	int i, s = 0;
	for (i = 0; i < 3; i++) s += table[i % 3]();
	return s;
}`)
	mk := u.est.InterMarkov
	if mk.PointerFlow <= 0 {
		t.Fatalf("pointer node saw no flow: %+v", mk)
	}
	idx := map[string]int{}
	for i, fd := range u.sp.Funcs {
		idx[fd.Name()] = i
	}
	a, b := mk.Inv[idx["alpha"]], mk.Inv[idx["beta"]]
	// alpha appears twice in the table, beta once: 2:1 flow split.
	if a <= b || !approx(a, 2*b) {
		t.Errorf("pointer split alpha=%g beta=%g, want 2:1", a, b)
	}
}

func TestNoReturnAnalysis(t *testing.T) {
	u := compile(t, `
void die(void) { printf("x"); exit(1); }
void die2(void) { die(); }
void maybe(int x) { if (x) exit(1); }
int ok(void) { return 1; }
int main(void) { maybe(0); return ok(); }`)
	nr := core.NoReturnFuncs(u.cp)
	byName := map[string]bool{}
	for i, fd := range u.sp.Funcs {
		byName[fd.Name()] = nr[i]
	}
	if !byName["die"] || !byName["die2"] {
		t.Errorf("die/die2 not detected as no-return: %v", byName)
	}
	if byName["maybe"] || byName["ok"] || byName["main"] {
		t.Errorf("returning functions misclassified: %v", byName)
	}
}

func TestCallSiteEstimates(t *testing.T) {
	u := compile(t, `
int helper(int x) { return x + 1; }
int hot(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s = helper(s);
	return s;
}
int main(void) { return hot(100) + helper(1); }`)
	// The loop site in hot must outrank the cold site in main.
	var loopSite, coldSite float64
	for _, s := range u.sp.CallSites {
		if s.Callee == nil || s.Callee.Name != "helper" {
			continue
		}
		if s.Caller.Name() == "hot" {
			loopSite = u.est.SiteFreqMarkov[s.ID]
		} else {
			coldSite = u.est.SiteFreqMarkov[s.ID]
		}
	}
	if loopSite <= coldSite {
		t.Errorf("loop site %g should outrank cold site %g", loopSite, coldSite)
	}
}

func TestEstimatesAreFinite(t *testing.T) {
	// A torture program combining recursion, pointers, switches, gotos.
	u := compile(t, `
int visit(int n);
int helper(int n) { return n > 0 ? visit(n - 1) : 0; }
int visit(int n) {
	switch (n % 3) {
	case 0: return helper(n - 1);
	case 1: goto out;
	default: return visit(n - 2) + visit(n - 3);
	}
out:
	return 1;
}
int (*fp)(int) = visit;
int main(void) { return fp(10); }`)
	check := func(name string, vs []float64) {
		for i, v := range vs {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s[%d] = %g", name, i, v)
			}
		}
	}
	check("CallSite", u.est.Inter.CallSite)
	check("Direct", u.est.Inter.Direct)
	check("AllRec", u.est.Inter.AllRec)
	check("AllRec2", u.est.Inter.AllRec2)
	check("Markov", u.est.InterMarkov.Inv)
	check("SiteFreqDirect", u.est.SiteFreqDirect)
	check("SiteFreqMarkov", u.est.SiteFreqMarkov)
	for f := range u.sp.Funcs {
		check("IntraLoop", u.est.IntraLoop[f].BlockFreq)
		check("IntraSmart", u.est.IntraSmart[f].BlockFreq)
		check("IntraMarkov", u.est.IntraMarkov[f].BlockFreq)
	}
}
