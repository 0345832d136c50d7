package core

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/sem"
)

// NoReturnFuncs computes the set of defined functions that can never
// return: every path from entry reaches a call to exit/abort (or to
// another no-return function) before any return. The paper's error
// heuristic says "errors (calling abort or exit) are unlikely"; in real
// programs those calls are usually wrapped (die, fatal, parse_error), so
// the heuristic needs the transitive closure.
func NoReturnFuncs(cp *cfg.Program) map[int]bool {
	noReturn := make(map[int]bool)
	// Fixpoint: marking one function no-return can cut paths in its
	// callers.
	for changed := true; changed; {
		changed = false
		for i, g := range cp.Graphs {
			if noReturn[i] {
				continue
			}
			if !canReturn(g, noReturn) {
				noReturn[i] = true
				changed = true
			}
		}
	}
	return noReturn
}

// canReturn reports whether any TermReturn block is reachable from entry
// without first executing a call to a known no-return function.
func canReturn(g *cfg.Graph, noReturn map[int]bool) bool {
	if len(g.Blocks) == 0 {
		return true
	}
	seen := make([]bool, len(g.Blocks))
	work := []*cfg.Block{g.Entry}
	seen[g.Entry.ID] = true
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if blockTerminates(blk, noReturn) {
			continue // control never leaves this block normally
		}
		if blk.Term == cfg.TermReturn {
			return true
		}
		for _, s := range blk.Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// blockTerminates reports whether the block contains a call that never
// returns (in its statements, condition, tag, or return value).
func blockTerminates(blk *cfg.Block, noReturn map[int]bool) bool {
	found := false
	check := func(e cast.Expr) {
		cast.WalkExpr(e, func(x cast.Expr) bool {
			if found {
				return false
			}
			if c, ok := x.(*cast.Call); ok {
				if callee := c.Callee(); callee != nil && calleeNoReturn(callee, noReturn) {
					found = true
					return false
				}
			}
			return true
		})
	}
	for _, s := range blk.Stmts {
		cast.StmtExprs(s, check)
		if found {
			return true
		}
	}
	if blk.Cond != nil {
		check(blk.Cond)
	}
	if blk.Tag != nil {
		check(blk.Tag)
	}
	if blk.RetVal != nil {
		check(blk.RetVal)
	}
	return found
}

func calleeNoReturn(callee *cast.Object, noReturn map[int]bool) bool {
	if callee.Builtin || callee.FuncIndex < 0 {
		return sem.NoReturnBuiltins[callee.Name]
	}
	return noReturn[callee.FuncIndex]
}
