// Command cprof interprets a C program under the profiling interpreter
// (its bytecode lowering, see internal/bc) and dumps the measured
// profile: per-function invocation counts, block counts, branch
// outcomes, and call-site counts — what an instrumented binary would
// report.
//
// With -instr sparse the run uses optimal probe placement instead of
// full instrumentation: counters go only on the off-forest CFG arcs
// chosen by the planner, and the complete profile is reconstructed from
// the probe vector afterwards (bit-identical to a full run).
//
// The observability flags expose the run's internals: -trace writes the
// JSONL span/counter stream (compile phases, the interpreter run, probe
// planning) and -metrics prints the text exposition, whose interp_*
// counters exactly match the dumped profile's own totals.
//
// Usage:
//
//	cprof [-in input-file] [-steps n] [-instr full|sparse]
//	      [-trace file|-] [-metrics] file.c [args...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"staticest"
	"staticest/internal/cliutil"
	"staticest/internal/obs"
)

func main() {
	inFile := flag.String("in", "", "file fed to the program's stdin")
	maxSteps := flag.Int64("steps", 0, "block-execution budget (0 = default)")
	blocks := flag.Bool("blocks", false, "dump per-block counts")
	instr := flag.String("instr", "full", "instrumentation mode: full or sparse")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	metrics := flag.Bool("metrics", false, "print the metrics exposition after the run")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: cprof [flags] file.c [args...]")
		flag.Usage()
		os.Exit(2)
	}
	if err := cliutil.CheckEnum("instr", *instr, "full", "sparse"); err != nil {
		fmt.Fprintf(os.Stderr, "cprof: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	o, closeObs, err := cliutil.Observability(*trace, *metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cprof: %v\n", err)
		os.Exit(1)
	}
	err = run(flag.Arg(0), flag.Args()[1:], *inFile, *maxSteps, *blocks, *instr, o)
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cprof: %v\n", err)
		os.Exit(1)
	}
	if *metrics {
		fmt.Println("\n-- metrics --")
		o.WriteProm(os.Stdout)
	}
}

func run(path string, args []string, inFile string, maxSteps int64, blocks bool, instr string, o *obs.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	var stdin []byte
	if inFile != "" {
		stdin, err = os.ReadFile(inFile)
		if err != nil {
			return err
		}
	}
	opts := staticest.RunOptions{Args: args, Stdin: stdin, MaxSteps: maxSteps}
	var plan *staticest.ProbePlan
	if instr == "sparse" {
		plan = u.PlanProbes()
		opts.Instrumentation = staticest.SparseInstrumentation
		opts.Plan = plan
	}
	res, err := u.Run(opts)
	if err != nil {
		return err
	}
	if plan != nil {
		rec, rerr := staticest.Reconstruct(plan, res.Probes)
		if rerr != nil {
			return fmt.Errorf("reconstructing sparse profile: %w", rerr)
		}
		res.Profile = rec
	}
	fmt.Printf("-- program output (%d bytes) --\n%s", len(res.Output), res.Output)
	fmt.Printf("-- exit %d, %d block executions, %.0f simulated cycles --\n",
		res.ExitCode, res.Steps, res.Profile.Cycles)
	if plan != nil {
		fmt.Printf("-- sparse: %d probes on %d arcs (%.1f%% of arcs probe-free), %d/%d call sites derived --\n",
			plan.ProbedArcs, plan.TotalArcs, 100*plan.ArcReduction(),
			plan.DerivedSites, len(plan.Sites))
	}
	fmt.Println()

	fmt.Println("function invocations:")
	order := make([]int, len(u.Sem.Funcs))
	for i := range order {
		order[i] = i
	}
	p := res.Profile
	sort.SliceStable(order, func(a, b int) bool {
		return p.FuncCalls[order[a]] > p.FuncCalls[order[b]]
	})
	for _, i := range order {
		fmt.Printf("  %-24s %12.0f\n", u.Sem.Funcs[i].Name(), p.FuncCalls[i])
	}

	fmt.Println("\nbranch sites (taken/not):")
	for _, bs := range u.Sem.BranchSites {
		fmt.Printf("  %-40s %10.0f %10.0f\n",
			fmt.Sprintf("%s @%s", bs.Func.Name(), bs.Stmt.Pos()),
			p.BranchTaken[bs.ID], p.BranchNot[bs.ID])
	}

	fmt.Println("\ncall sites:")
	for _, cs := range u.Sem.CallSites {
		target := "<indirect>"
		if cs.Callee != nil {
			target = cs.Callee.Name
		}
		fmt.Printf("  %-44s %10.0f\n",
			fmt.Sprintf("%s -> %s @%s", cs.Caller.Name(), target, cs.Call.Pos()),
			p.CallSiteCounts[cs.ID])
	}

	if blocks {
		fmt.Println("\nblock counts:")
		for i, fd := range u.Sem.Funcs {
			fmt.Printf("  %s:\n", fd.Name())
			for _, blk := range u.CFG.Graphs[i].Blocks {
				fmt.Printf("    b%-3d %-12s %12.0f\n", blk.ID, blk.Name,
					p.BlockCounts[i][blk.ID])
			}
		}
	}
	return nil
}
