// Command cfgdump prints the compiler-side view of a C source file: the
// AST (with estimate annotations), per-function control-flow graphs, the
// call graph, and the branch predictor's per-site verdicts.
//
// Usage:
//
//	cfgdump [-ast] [-cfg] [-calls] [-pred] [-trace file|-] file.c
//	cfgdump -callgraph file.c | dot -Tsvg > callgraph.svg
//
// With no mode flags, everything is printed. -callgraph emits ONLY the
// call graph as Graphviz dot — nodes carry the smart estimator's
// invocation counts, edges the estimated call frequencies — so the
// output pipes straight into dot.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/cliutil"
)

func main() {
	ast := flag.Bool("ast", false, "print the AST with estimated counts")
	cfgF := flag.Bool("cfg", false, "print control-flow graphs")
	calls := flag.Bool("calls", false, "print the call graph")
	callgraphDot := flag.Bool("callgraph", false, "emit the call graph as Graphviz dot and exit")
	pred := flag.Bool("pred", false, "print branch predictions")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cfgdump [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	o, closeObs, err := cliutil.Observability(*trace, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfgdump: %v\n", err)
		os.Exit(1)
	}
	if *callgraphDot {
		err = runDot(flag.Arg(0), o)
		closeObs()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfgdump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	all := !*ast && !*cfgF && !*calls && !*pred
	err = run(flag.Arg(0), all || *ast, all || *cfgF, all || *calls, all || *pred, o)
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfgdump: %v\n", err)
		os.Exit(1)
	}
}

// runDot compiles the file and emits its call graph as Graphviz dot:
// one box per defined function labeled with the smart estimator's
// invocation count, one edge per direct caller/callee pair labeled with
// the summed estimated frequency of its call sites. Address-taken
// functions (possible indirect-call targets) get a double border.
func runDot(path string, o *staticest.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	est := u.Estimate()

	addrTaken := map[int]bool{}
	for _, at := range u.Call.AddrTaken {
		addrTaken[at.FuncIndex] = true
	}
	fmt.Println("digraph callgraph {")
	fmt.Println("  rankdir=LR;")
	fmt.Println("  node [shape=box, fontname=\"Helvetica\"];")
	for i := range u.Sem.Funcs {
		attrs := fmt.Sprintf("label=\"%s\\ninv %.1f\"", u.Call.FuncName(i), est.Inter.Direct[i])
		if addrTaken[i] {
			attrs += ", peripheries=2"
		}
		fmt.Printf("  f%d [%s];\n", i, attrs)
	}
	keys := make([][2]int, 0, len(u.Call.Edges))
	for k := range u.Call.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		e := u.Call.Edges[k]
		var freq float64
		for _, site := range e.Sites {
			freq += est.SiteFreqDirect[site.ID]
		}
		fmt.Printf("  f%d -> f%d [label=\"%.1f\"];\n", e.Caller, e.Callee, freq)
	}
	fmt.Println("}")
	return nil
}

func run(path string, ast, cfgF, calls, pred bool, o *staticest.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	est := u.Estimate()

	if ast {
		fmt.Println("== AST (annotated with smart-heuristic estimated counts) ==")
		for i, fd := range u.Sem.Funcs {
			freq := est.StmtFreqOf(u.CFG.Graphs[i])
			var sb strings.Builder
			cast.FprintTree(&sb, fd, func(s cast.Stmt) string {
				if f, ok := freq.Of(s); ok {
					return fmt.Sprintf("%.2f", f)
				}
				return ""
			})
			fmt.Print(sb.String())
		}
		fmt.Println()
	}
	if cfgF {
		fmt.Println("== control-flow graphs ==")
		for _, g := range u.CFG.Graphs {
			fmt.Print(g.String())
		}
		fmt.Println()
	}
	if calls {
		fmt.Println("== call graph (direct edges) ==")
		for i, adj := range u.Call.Adj {
			if len(adj) == 0 {
				continue
			}
			names := make([]string, len(adj))
			for j, c := range adj {
				names[j] = u.Call.FuncName(c)
			}
			fmt.Printf("  %-20s -> %s\n", u.Call.FuncName(i), strings.Join(names, ", "))
		}
		if n := len(u.Call.AddrTaken); n > 0 {
			fmt.Printf("  address-taken functions (%d):", n)
			for _, at := range u.Call.AddrTaken {
				fmt.Printf(" %s(%d)", u.Call.FuncName(at.FuncIndex), at.Count)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if pred {
		fmt.Println("== branch predictions ==")
		for _, bs := range u.Sem.BranchSites {
			bp := est.Pred.Branch[bs.ID]
			cond := ""
			if c := bs.Stmt.CondExpr(); c != nil {
				cond = cast.ExprString(c)
			}
			fmt.Printf("  %-10s p(true)=%.2f  %s @%s: (%s)\n",
				bp.Heuristic, bp.ProbTrue, bs.Func.Name(), bs.Stmt.Pos(), cond)
		}
	}
	return nil
}
