package staticest_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"staticest"
	"staticest/internal/bc"
	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/clex"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/eval"
	"staticest/internal/gen"
	"staticest/internal/metric"
	"staticest/internal/sem"
	"staticest/internal/suite"
)

// The benchmarks below regenerate every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Scores are attached
// via b.ReportMetric, so `go test -bench=.` reports both the cost of
// regenerating an experiment and its headline result.

func loadSuite(b *testing.B) []*eval.ProgramData {
	b.Helper()
	data, err := eval.LoadSuiteCached()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := eval.Table1(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Strchr(b *testing.B) {
	var score20 float64
	for i := 0; i < b.N; i++ {
		_, est, actual, err := eval.StrchrData()
		if err != nil {
			b.Fatal(err)
		}
		score20 = metric.WeightMatch(est.IntraSmart[0].BlockFreq, actual, 0.20)
	}
	b.ReportMetric(score20*100, "score20%")
}

func BenchmarkFigure2BranchMissRates(b *testing.B) {
	data := loadSuite(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure2(data)
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, r := range rows {
			avg += r.Smart
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "miss%")
}

func BenchmarkFigure4Intra(b *testing.B) {
	data := loadSuite(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure4(data)
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, r := range rows {
			avg += r.Smart
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "smart%")
}

func benchFigure5(b *testing.B, cutoff float64) {
	data := loadSuite(b)
	var direct, markov float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure5(data, cutoff)
		if err != nil {
			b.Fatal(err)
		}
		direct, markov = 0, 0
		for _, r := range rows {
			direct += r.Direct
			markov += r.Markov
		}
		direct /= float64(len(rows))
		markov /= float64(len(rows))
	}
	b.ReportMetric(direct, "direct%")
	b.ReportMetric(markov, "markov%")
}

func BenchmarkFigure5aInvocationSimple(b *testing.B) {
	data := loadSuite(b)
	var callSite float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure5(data, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		callSite = 0
		for _, r := range rows {
			callSite += r.CallSite
		}
		callSite /= float64(len(rows))
	}
	b.ReportMetric(callSite, "call_site%")
}

func BenchmarkFigure5bInvocation10(b *testing.B) { benchFigure5(b, 0.10) }
func BenchmarkFigure5cInvocation25(b *testing.B) { benchFigure5(b, 0.25) }

func BenchmarkFigure7MarkovSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9CallSites(b *testing.B) {
	data := loadSuite(b)
	var markov float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure9(data)
		if err != nil {
			b.Fatal(err)
		}
		markov = 0
		for _, r := range rows {
			markov += r.Markov
		}
		markov /= float64(len(rows))
	}
	b.ReportMetric(markov, "markov%")
}

func BenchmarkFigure10SelectiveOpt(b *testing.B) {
	data := loadSuite(b)
	var compress *eval.ProgramData
	for _, d := range data {
		if d.Prog.Name == "compress" {
			compress = d
		}
	}
	var knee float64
	for i := 0; i < b.N; i++ {
		curves, err := eval.Figure10(compress, 0.55)
		if err != nil {
			b.Fatal(err)
		}
		knee = curves[0].Speedups[6] // static estimate at k=6
	}
	b.ReportMetric(knee, "speedup@6")
}

// --- ablation benches (DESIGN.md section 5) --------------------------------

// ablationScore recomputes estimates for the whole suite under conf and
// returns the average Markov invocation score at 25%.
func ablationScore(b *testing.B, conf core.Config) float64 {
	data := loadSuite(b)
	total := 0.0
	for _, d := range data {
		est := d.Unit.EstimateWith(conf)
		// Score the Markov invocation estimate against each profile.
		progTotal := 0.0
		for _, p := range d.Profiles {
			progTotal += metric.WeightMatch(est.InterMarkov.Inv, p.FuncCalls, 0.25)
		}
		total += progTotal / float64(len(d.Profiles))
	}
	return total / float64(len(data)) * 100
}

func BenchmarkAblationSwitchWeighting(b *testing.B) {
	var byLabels, equal float64
	for i := 0; i < b.N; i++ {
		conf := core.DefaultConfig()
		byLabels = ablationScore(b, conf)
		conf.SwitchWeightByLabels = false
		equal = ablationScore(b, conf)
	}
	b.ReportMetric(byLabels, "bylabels%")
	b.ReportMetric(equal, "equal%")
}

func BenchmarkAblationBranchProbability(b *testing.B) {
	probs := []float64{0.6, 0.7, 0.8, 0.9}
	scores := make([]float64, len(probs))
	for i := 0; i < b.N; i++ {
		for j, p := range probs {
			conf := core.DefaultConfig()
			conf.TakenProb = p
			scores[j] = ablationScore(b, conf)
		}
	}
	for j, p := range probs {
		b.ReportMetric(scores[j], formatProbMetric(p))
	}
}

func formatProbMetric(p float64) string {
	return "p" + string('0'+byte(p*10)) + "0%"
}

func BenchmarkAblationLoopCount(b *testing.B) {
	counts := []float64{2, 5, 10, 20}
	scores := make([]float64, len(counts))
	for i := 0; i < b.N; i++ {
		for j, n := range counts {
			conf := core.DefaultConfig()
			conf.LoopCount = n
			scores[j] = ablationScore(b, conf)
		}
	}
	names := []string{"loop2%", "loop5%", "loop10%", "loop20%"}
	for j := range counts {
		b.ReportMetric(scores[j], names[j])
	}
}

func BenchmarkAblationRecursionCeiling(b *testing.B) {
	ceilings := []float64{2, 5, 10}
	scores := make([]float64, len(ceilings))
	for i := 0; i < b.N; i++ {
		for j, c := range ceilings {
			conf := core.DefaultConfig()
			conf.SCCCeiling = c
			scores[j] = ablationScore(b, conf)
		}
	}
	names := []string{"ceil2%", "ceil5%", "ceil10%"}
	for j := range ceilings {
		b.ReportMetric(scores[j], names[j])
	}
}

func BenchmarkAblationHeuristics(b *testing.B) {
	// Disable one heuristic at a time and report the branch miss rate.
	data := loadSuite(b)
	heuristics := []string{"pointer", "call", "opcode", "logical", "store", "return"}
	missWith := func(disabled string) float64 {
		total := 0.0
		for _, d := range data {
			conf := core.DefaultConfig()
			if disabled != "" {
				conf.DisabledHeuristics = map[string]bool{disabled: true}
			}
			est := d.Unit.EstimateWith(conf)
			dirs := make([]bool, len(est.Pred.Branch))
			skip := make([]bool, len(est.Pred.Branch))
			for i, bp := range est.Pred.Branch {
				dirs[i] = bp.Taken()
				skip[i] = bp.Constant
			}
			progMiss := 0.0
			for _, p := range d.Profiles {
				progMiss += metric.MissRate(dirs, p.BranchTaken, p.BranchNot, skip)
			}
			total += progMiss / float64(len(d.Profiles))
		}
		return total / float64(len(data)) * 100
	}
	var baseline float64
	drops := make([]float64, len(heuristics))
	for i := 0; i < b.N; i++ {
		baseline = missWith("")
		for j, h := range heuristics {
			drops[j] = missWith(h)
		}
	}
	b.ReportMetric(baseline, "all%")
	for j, h := range heuristics {
		b.ReportMetric(drops[j], "no_"+h+"%")
	}
}

// --- micro-benchmarks of the pipeline stages --------------------------------

// BenchmarkCompilePhases times each phase of a cold compile and estimate,
// the work a cache miss does, over one fixed pool of programs: the 14
// suite programs plus 32 generated ones whose seeds a fixed-seed
// generator draws. One op covers the whole pool. Each sub-benchmark runs
// one phase on the previous phases' output, built before the timer
// starts:
//
//	lex        clex.Tokenize
//	parse      cparse.ParseFile, which lexes first, as the cparse.parse span does
//	sem        sem.Analyze, on files parsed afresh with the timer stopped,
//	           because it annotates the AST
//	cfg        cfg.Build
//	callgraph  callgraph.Build
//	estimate   core.EstimateAll in the default configuration; constant
//	           folding runs inside its branch prediction
//	all        staticest.Compile then Unit.Estimate
//
// Bytecode lowering has no sub-benchmark: an estimate never lowers.
func BenchmarkCompilePhases(b *testing.B) {
	type input struct {
		name string
		src  []byte
	}
	var pool []input
	for _, p := range suite.Programs() {
		pool = append(pool, input{p.Name + ".c", []byte(p.Source)})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := rng.Int63()
		pool = append(pool, input{fmt.Sprintf("gen%d.c", seed), gen.Source(seed)})
	}
	units := make([]*staticest.Unit, len(pool))
	for i, in := range pool {
		u, err := staticest.Compile(in.name, in.src)
		if err != nil {
			b.Fatal(err)
		}
		units[i] = u
	}
	parseAll := func(b *testing.B) []*cast.File {
		files := make([]*cast.File, len(pool))
		for i, in := range pool {
			f, err := cparse.ParseFile(in.name, in.src)
			if err != nil {
				b.Fatal(err)
			}
			files[i] = f
		}
		return files
	}
	conf := core.DefaultConfig()

	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		var tokens int
		for i := 0; i < b.N; i++ {
			tokens = 0
			for _, in := range pool {
				toks, err := clex.Tokenize(in.name, in.src)
				if err != nil {
					b.Fatal(err)
				}
				tokens += len(toks)
			}
		}
		b.ReportMetric(float64(tokens), "tokens")
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parseAll(b)
		}
	})
	b.Run("sem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			files := parseAll(b)
			b.StartTimer()
			for _, f := range files {
				if _, err := sem.Analyze(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cfg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				if _, err := cfg.Build(u.Sem); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("callgraph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				callgraph.Build(u.Sem)
			}
		}
	})
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				core.EstimateAll(u.CFG, u.Call, conf)
			}
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, in := range pool {
				u, err := staticest.Compile(in.name, in.src)
				if err != nil {
					b.Fatal(err)
				}
				u.Estimate()
			}
		}
	})
}

// BenchmarkInlineXlisp measures the optimizer subsystem's planning plus
// CFG splicing on the suite's largest program: rank every eligible call
// site under the smart estimates, select under a 200-block budget, and
// apply the transform (working-copy clone, frame relocation, block
// splicing, renumbering).
func BenchmarkInlineXlisp(b *testing.B) {
	prog, err := suite.ByName("xlisp")
	if err != nil {
		b.Fatal(err)
	}
	u, err := prog.CompileCached()
	if err != nil {
		b.Fatal(err)
	}
	src, err := u.EstimateFreqSource("smart")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sites, cloned int
	for i := 0; i < b.N; i++ {
		plan := u.PlanInline(src, 200)
		_, res, err := u.Inline(plan)
		if err != nil {
			b.Fatal(err)
		}
		sites, cloned = len(res.InlinedSites), res.BlocksCloned
	}
	b.ReportMetric(float64(sites), "sites_inlined")
	b.ReportMetric(float64(cloned), "blocks_cloned")
}

func BenchmarkInterpretCompress(b *testing.B) {
	prog, err := suite.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	u, err := prog.CompileCached()
	if err != nil {
		b.Fatal(err)
	}
	in := prog.Inputs[0]
	opts := staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}
	b.ReportAllocs()
	warm(b, func() error { _, err := u.Run(opts); return err })
	var res *staticest.RunResult
	for i := 0; i < b.N; i++ {
		if res, err = u.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "blocks/run")
	b.ReportMetric(instrsPerRun(b, u, res.Profile.BlockCounts), "instrs/run")
}

// warm runs op once before a benchmark's timed loop and collects: a
// unit's first run lowers it to bytecode, and a benchmark that follows
// another would otherwise start against the heap the other one grew.
func warm(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ResetTimer()
}

// instrsPerRun is the bytecode work of a full-instrumentation run with
// block counts counts: each instruction of u's full lowering, times the
// count of the block it belongs to (the one whose OpBlockFull last
// precedes it). It is a linear function of the block counters, so it
// is exact, and it is taken after the loop with the timer stopped, so
// it adds nothing to the time or the allocations measured.
func instrsPerRun(b *testing.B, u *staticest.Unit, counts [][]float64) float64 {
	b.Helper()
	b.StopTimer()
	mod, err := bc.Compile(u.CFG, nil)
	if err != nil {
		b.Fatal(err)
	}
	var n float64
	for fi := range mod.Funcs {
		blockCount := 0.0
		for _, in := range mod.Funcs[fi].Code {
			if in.Op == bc.OpBlockFull {
				blockCount = counts[fi][in.A]
			}
			n += blockCount
		}
	}
	return n
}

// BenchmarkReuseTrace/on measures the memory-trace overhead on
// compress: BenchmarkInterpretCompress's run plus trace collection and
// the O(n log n) stack-distance measurement. The untraced run, whose
// only cost is a nil-map test per candidate access, is
// BenchmarkInterpretCompress itself.
func BenchmarkReuseTrace(b *testing.B) {
	prog, err := suite.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	u, err := prog.CompileCached()
	if err != nil {
		b.Fatal(err)
	}
	in := prog.Inputs[0]
	b.Run("on", func(b *testing.B) {
		tab := u.ReuseTable()
		opts := staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}
		b.ReportAllocs()
		warm(b, func() error { _, _, err := u.MeasureReuse(tab, opts); return err })
		var accesses float64
		for i := 0; i < b.N; i++ {
			p, _, err := u.MeasureReuse(tab, opts)
			if err != nil {
				b.Fatal(err)
			}
			accesses = p.Accesses()
		}
		b.ReportMetric(accesses, "accesses/run")
	})
}

// BenchmarkProbeProfiling compares full instrumentation against sparse
// probe profiling on the suite's largest program (xlisp): wall time per
// run plus the number of counter increments each mode performs. The
// sparse numbers include nothing the reconstructor can't undo — the
// recovered profile is exactly the full one (see internal/probes).
func BenchmarkProbeProfiling(b *testing.B) {
	prog, err := suite.ByName("xlisp")
	if err != nil {
		b.Fatal(err)
	}
	u, err := prog.CompileCached()
	if err != nil {
		b.Fatal(err)
	}
	in := prog.Inputs[0]
	plan := u.PlanProbes()

	b.Run("full", func(b *testing.B) {
		opts := staticest.RunOptions{Args: in.Args, Stdin: in.Stdin}
		b.ReportAllocs()
		warm(b, func() error { _, err := u.Run(opts); return err })
		var res *staticest.RunResult
		var err error
		for i := 0; i < b.N; i++ {
			if res, err = u.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
		p := res.Profile
		incs := p.TotalBlockCount() + sum(p.FuncCalls) + sum(p.CallSiteCounts) +
			sum(p.BranchTaken) + sum(p.BranchNot)
		for _, arms := range p.SwitchArm {
			incs += sum(arms)
		}
		b.ReportMetric(incs, "increments/run")
		b.ReportMetric(instrsPerRun(b, u, p.BlockCounts), "instrs/run")
	})
	b.Run("sparse", func(b *testing.B) {
		opts := staticest.RunOptions{
			Args: in.Args, Stdin: in.Stdin,
			Instrumentation: staticest.SparseInstrumentation,
			Plan:            plan,
		}
		b.ReportAllocs()
		warm(b, func() error { _, err := u.Run(opts); return err })
		var incs float64
		for i := 0; i < b.N; i++ {
			res, err := u.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			incs = res.Probes.Increments()
		}
		b.ReportMetric(incs, "increments/run")
		b.ReportMetric(100*plan.ArcReduction(), "arc_reduction%")
	})
}

// BenchmarkObsEnabled is BenchmarkInterpretCompress's run reporting to
// a live observer (span + counters, no sink) — the cost of switching
// observability on. BenchmarkInterpretCompress is the nil-observer run:
// the nil path adds no work to the interpreter's hot loop, because
// per-run counters are derived at run end from state the loop already
// maintains.
func BenchmarkObsEnabled(b *testing.B) {
	o := staticest.NewObserver()
	prog, err := suite.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	u, err := prog.CompileCached()
	if err != nil {
		b.Fatal(err)
	}
	in := prog.Inputs[0]
	opts := staticest.RunOptions{Args: in.Args, Stdin: in.Stdin, Obs: o}
	b.ReportAllocs()
	warm(b, func() error { _, err := u.Run(opts); return err })
	for i := 0; i < b.N; i++ {
		if _, err := u.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func sum(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func BenchmarkExtensionCutoffSweep(b *testing.B) {
	data := loadSuite(b)
	var at50 float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.CutoffSweep(data, []float64{0.05, 0.25, 0.50})
		if err != nil {
			b.Fatal(err)
		}
		at50 = rows[2].Markov
	}
	b.ReportMetric(at50, "markov@50%")
}

func BenchmarkExtensionMarkovOracle(b *testing.B) {
	data := loadSuite(b)
	var oracle float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.MarkovOracle(data, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		oracle = 0
		for _, r := range rows {
			oracle += r.MarkovOracle
		}
		oracle /= float64(len(rows))
	}
	b.ReportMetric(oracle, "oracle%")
}
