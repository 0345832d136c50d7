package opt

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
)

// SpillWeight is a Chaitin-style spill cost for one variable: its static
// reference count weighted by the frequency of the blocks the references
// sit in. A register allocator spills the variable with the lowest cost
// first; two sources agree when they rank the variables the same way.
type SpillWeight struct {
	Obj    *cast.Object
	Name   string
	Uses   int     // static reference count
	Weight float64 // Σ references-in-block × block frequency
}

// SpillWeights computes spill costs for every variable of function fi
// (parameters, then locals, then referenced globals in first-reference
// order) under the source's block frequencies.
func SpillWeights(cp *cfg.Program, fi int, src *Source) []SpillWeight {
	fd := cp.Sem.Funcs[fi]
	index := make(map[*cast.Object]int)
	var out []SpillWeight
	add := func(o *cast.Object) {
		if _, ok := index[o]; !ok {
			index[o] = len(out)
			out = append(out, SpillWeight{Obj: o, Name: o.Name})
		}
	}
	for _, p := range fd.Params {
		add(p)
	}
	for _, l := range fd.Locals {
		add(l)
	}

	count := func(e cast.Expr, freq float64) {
		cast.WalkExpr(e, func(x cast.Expr) bool {
			if id, ok := x.(*cast.Ident); ok && id.Obj != nil {
				o := id.Obj
				if o.Kind == cast.ObjVar || o.Kind == cast.ObjParam {
					if o.Global {
						add(o) // referenced globals join the candidate set lazily
					}
					if i, ok := index[o]; ok {
						out[i].Uses++
						out[i].Weight += freq
					}
				}
			}
			return true
		})
	}
	for _, blk := range cp.Graphs[fi].Blocks {
		freq := src.Block[fi][blk.ID]
		for _, s := range blk.Stmts {
			for _, e := range cast.StmtExprs(s) {
				count(e, freq)
			}
		}
		for _, e := range []cast.Expr{blk.Cond, blk.Tag, blk.RetVal} {
			if e != nil {
				count(e, freq)
			}
		}
	}
	return out
}

// SpillMissFloor keeps a variable's cache-aware weight a positive
// multiple of its base Chaitin weight, so variables whose memory
// behavior is unknown (miss ratio 0) still rank by reference frequency
// rather than collapsing to zero.
const SpillMissFloor = 0.05

// CacheAwareSpillWeights scales Chaitin spill costs by estimated
// cache-miss ratios: a spilled variable's reloads compete with the
// surrounding memory traffic, so where that traffic misses, reloads
// are evicted and the spill is costlier. Each weight becomes
// floor + miss(obj) times the base weight. miss reports the miss
// ratio (0..1) of the memory object the variable's traffic lands in
// (e.g. reuse.ObjectMissRatio); objects it does not know return 0 and
// keep the floor multiple.
func CacheAwareSpillWeights(ws []SpillWeight, miss func(*cast.Object) float64) []SpillWeight {
	out := append([]SpillWeight(nil), ws...)
	for i := range out {
		out[i].Weight *= SpillMissFloor + miss(out[i].Obj)
	}
	return out
}
