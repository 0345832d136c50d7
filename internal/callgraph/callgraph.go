// Package callgraph builds the static call graph of an analyzed program:
// direct call edges between defined functions, the set of indirect call
// sites, and the address-taken census that weights the Markov pointer
// node.
package callgraph

import (
	"staticest/internal/graphs"
	"staticest/internal/sem"
)

// Edge is a direct call edge with the sites that realize it.
type Edge struct {
	Caller, Callee int // function indices
	Sites          []*sem.CallSite
}

// Graph is the static call graph.
type Graph struct {
	Prog *sem.Program

	// Adj[i] lists callee function indices reachable by direct calls
	// from function i (deduplicated, in first-occurrence order).
	Adj [][]int

	// Edges indexes the merged edge for a (caller, callee) pair.
	Edges map[[2]int]*Edge

	// IndirectSites lists every call-through-pointer site, per caller.
	IndirectSites map[int][]*sem.CallSite

	// AddrTaken lists defined functions whose address is taken, with
	// their static address-of counts (the pointer-node weights).
	AddrTaken []AddrTakenFunc
}

// AddrTakenFunc pairs a function index with its address-of census.
type AddrTakenFunc struct {
	FuncIndex int
	Count     int
}

// Build constructs the call graph.
func Build(sp *sem.Program) *Graph {
	n := len(sp.Funcs)
	g := &Graph{
		Prog:          sp,
		Adj:           make([][]int, n),
		Edges:         make(map[[2]int]*Edge),
		IndirectSites: make(map[int][]*sem.CallSite),
	}
	for _, site := range sp.CallSites {
		ci := site.Caller.Obj.FuncIndex
		if site.Indirect() {
			g.IndirectSites[ci] = append(g.IndirectSites[ci], site)
			continue
		}
		callee := site.Callee.FuncIndex
		if callee < 0 {
			continue // extern without definition (already an error in sem)
		}
		key := [2]int{ci, callee}
		e, ok := g.Edges[key]
		if !ok {
			e = &Edge{Caller: ci, Callee: callee}
			g.Edges[key] = e
			g.Adj[ci] = append(g.Adj[ci], callee)
		}
		e.Sites = append(e.Sites, site)
	}
	for _, o := range sp.AddrTaken {
		if o.FuncIndex >= 0 {
			g.AddrTaken = append(g.AddrTaken, AddrTakenFunc{
				FuncIndex: o.FuncIndex, Count: o.AddrTakenCount,
			})
		}
	}
	return g
}

// SCCs returns the strongly-connected components of the direct call
// graph in reverse topological order.
func (g *Graph) SCCs() [][]int {
	return graphs.SCC(len(g.Adj), g.Adj)
}

// DirectlyRecursive reports whether function i directly calls itself.
func (g *Graph) DirectlyRecursive(i int) bool {
	_, ok := g.Edges[[2]int{i, i}]
	return ok
}

// InRecursiveSCC returns, for each function, whether it participates in
// any recursion (an SCC of size > 1, or direct self-recursion).
func (g *Graph) InRecursiveSCC() []bool {
	out := make([]bool, len(g.Adj))
	for _, comp := range g.SCCs() {
		if graphs.IsRecursiveComp(comp, g.Adj) {
			for _, v := range comp {
				out[v] = true
			}
		}
	}
	return out
}

// MainIndex returns the function index of main, or -1.
func (g *Graph) MainIndex() int {
	if g.Prog.Main == nil {
		return -1
	}
	return g.Prog.Main.Obj.FuncIndex
}

// FuncName returns the name of function i.
func (g *Graph) FuncName(i int) string { return g.Prog.Funcs[i].Name() }
