package reuse

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/ctypes"
)

// Ref is one static memory-reference site: a scalar-typed array
// subscript, pointer dereference, or through-memory member access. The
// table deliberately excludes address computations (operands of &,
// array-typed subscripts that merely decay) and direct scalar variable
// accesses, so a Ref corresponds one-to-one with a runtime load or
// store the interpreter can trace.
type Ref struct {
	ID   int32
	Func int        // index into Sem.Funcs
	Expr cast.Expr  // the Index / Unary(Deref) / Member node
	Blk  *cfg.Block // block evaluating the reference; nil if unreachable

	// Base is the root array or pointer variable the address is formed
	// from, when syntactically evident (a[i], a[i].f, s.t[i]); nil for
	// dereference chains whose target object is unknown.
	Base *cast.Object
	// ElemSize is the byte size of the accessed element.
	ElemSize int64
	// Footprint is the number of addressable elements of the base object
	// (its declared byte size over the element stride) — the maximum
	// possible reuse distance within the object. 0 when unknown (pointer
	// bases).
	Footprint float64

	// Loop is the innermost enclosing loop statement, nil outside loops,
	// and Loops is the full enclosing-loop stack (outermost first).
	// Streaming reports whether the reference's address depends on a
	// variable the innermost loop's body modifies — the address moves
	// across iterations (a streaming scan) rather than revisiting one
	// element.
	Loop      cast.Stmt
	Loops     []cast.Stmt
	Streaming bool

	// NVLoop is the innermost enclosing loop whose own induction does
	// not move the reference's address (each address variable is
	// attributed to the innermost loop storing it): bmat[i][k] inside
	// loops i, j, k re-touches its elements once per j iteration, so
	// NVLoop is the j loop and the reuse distance is the working set of
	// one j iteration. Nil when every enclosing loop advances the
	// address (a pure scan re-touches only across whole-nest reruns).
	NVLoop cast.Stmt
}

// Name renders the reference's source expression.
func (r *Ref) Name() string { return cast.ExprString(r.Expr) }

// Table is the program's reference sites in deterministic order
// (function order, then source pre-order within each function), plus
// the loop metadata the static model consumes.
type Table struct {
	Refs  []Ref
	index map[cast.Expr]int32

	// LoopCond maps a loop statement to its CFG condition block, whose
	// estimated frequency yields the loop's trip and entry counts.
	LoopCond map[cast.Stmt]*cfg.Block
	// ConstTrips maps a loop to its syntactically constant trip count
	// (for (i = 0; i < 100; i++) → 100); absent when the bound is not
	// a compile-time constant. The static model prefers these over the
	// estimators' generic loop multiplier.
	ConstTrips map[cast.Stmt]float64
}

// RefIndex returns the expr→ID map in the form interp.Options.MemRefs
// consumes.
func (t *Table) RefIndex() map[cast.Expr]int32 { return t.index }

// BuildTable discovers every traceable memory reference in the program
// and classifies each against its loop context.
func BuildTable(cp *cfg.Program) *Table {
	t := &Table{
		index:      make(map[cast.Expr]int32),
		LoopCond:   make(map[cast.Stmt]*cfg.Block),
		ConstTrips: make(map[cast.Stmt]float64),
	}

	// Loop context per candidate node, via a nesting-aware AST walk.
	loopsOf := make(map[cast.Expr][]cast.Stmt)
	for fi, fd := range cp.Sem.Funcs {
		if fd.Body == nil {
			continue
		}
		walkLoopExprs(fd.Body, nil, func(e cast.Expr, loops []cast.Stmt) {
			collectRefs(e, func(node cast.Expr) {
				if _, dup := t.index[node]; dup {
					return
				}
				loopsOf[node] = loops
				id := int32(len(t.Refs))
				t.index[node] = id
				t.Refs = append(t.Refs, Ref{ID: id, Func: fi, Expr: node})
			})
		})
	}

	// Loop metadata: condition blocks (via branch-site IDs) and
	// syntactically constant trip counts.
	for _, g := range cp.Graphs {
		for _, blk := range g.Blocks {
			if blk.Term != cfg.TermCond || blk.BranchSite < 0 || blk.BranchSite >= len(cp.Sem.BranchSites) {
				continue
			}
			site := cp.Sem.BranchSites[blk.BranchSite]
			if site.Stmt != nil && site.Stmt.IsLoop() {
				t.LoopCond[site.Stmt] = blk
			}
		}
	}

	// Block attribution from the CFG: map every expression node attached
	// to a block back to that block (the core.SiteLocations idiom).
	for fi, g := range cp.Graphs {
		for _, blk := range g.Blocks {
			attach := func(e cast.Expr) {
				cast.WalkExpr(e, func(x cast.Expr) bool {
					if id, ok := t.index[x]; ok && t.Refs[id].Func == fi && t.Refs[id].Blk == nil {
						t.Refs[id].Blk = blk
					}
					return true
				})
			}
			for _, s := range blk.Stmts {
				cast.StmtExprs(s, attach)
			}
			attach(blk.Cond)
			attach(blk.Tag)
			attach(blk.RetVal)
		}
	}

	// Shape: base object, element size, footprint, streaming.
	stored := make(map[cast.Stmt]map[*cast.Object]bool)
	for i := range t.Refs {
		r := &t.Refs[i]
		r.Loops = loopsOf[r.Expr]
		if n := len(r.Loops); n > 0 {
			r.Loop = r.Loops[n-1]
		}
		classify(r)
		if r.Loop != nil {
			storedIn := func(L cast.Stmt) map[*cast.Object]bool {
				st, ok := stored[L]
				if !ok {
					st = cast.StoredObjects(L)
					stored[L] = st
				}
				return st
			}
			r.Streaming = addrVaries(r.Expr, storedIn(r.Loop))

			// Attribute each address variable to the innermost loop
			// that stores it; NVLoop is the innermost loop owning none
			// of them.
			unclaimed := addrVars(r.Expr)
			for j := len(r.Loops) - 1; j >= 0; j-- {
				L := r.Loops[j]
				st := storedIn(L)
				owns := false
				for v := range unclaimed {
					if st[v] {
						owns = true
						delete(unclaimed, v)
					}
				}
				if !owns {
					r.NVLoop = L
					break
				}
			}
		}
		for _, L := range r.Loops {
			if _, seen := t.ConstTrips[L]; !seen {
				if c := constTrips(L); c > 0 {
					t.ConstTrips[L] = c
				} else {
					t.ConstTrips[L] = 0
				}
			}
		}
	}
	for L, c := range t.ConstTrips {
		if c == 0 {
			delete(t.ConstTrips, L)
		}
	}
	return t
}

// constTrips recognizes the canonical counted loop
// for (i = c0; i <op> c1; i += step) with literal bounds and returns
// its trip count, or 0 when the loop is not of that shape.
func constTrips(s cast.Stmt) float64 {
	f, ok := s.(*cast.For)
	if !ok || f.Init == nil || f.Cond == nil || f.Post == nil {
		return 0
	}
	init, ok := f.Init.(*cast.Assign)
	if !ok || init.Op != cast.Plain {
		return 0
	}
	iv, ok := init.L.(*cast.Ident)
	if !ok || iv.Obj == nil {
		return 0
	}
	start, ok := intConst(init.R)
	if !ok {
		return 0
	}
	cond, ok := f.Cond.(*cast.Binary)
	if !ok {
		return 0
	}
	cv, ok := cond.X.(*cast.Ident)
	if !ok || cv.Obj != iv.Obj {
		return 0
	}
	bound, ok := intConst(cond.Y)
	if !ok {
		return 0
	}
	step := stepOf(f.Post, iv.Obj)
	if step == 0 {
		return 0
	}
	var span int64
	switch cond.Op {
	case cast.Lt:
		span = bound - start
	case cast.Le:
		span = bound - start + 1
	case cast.Gt:
		span = start - bound
	case cast.Ge:
		span = start - bound + 1
	default:
		return 0
	}
	if step < 0 {
		step = -step
	}
	if span <= 0 {
		return 0
	}
	trips := (span + step - 1) / step
	return float64(trips)
}

// stepOf returns the signed literal step the post expression applies to
// the induction variable, or 0 if unrecognized.
func stepOf(post cast.Expr, iv *cast.Object) int64 {
	switch x := post.(type) {
	case *cast.Postfix:
		if id, ok := x.X.(*cast.Ident); ok && id.Obj == iv {
			if x.Inc {
				return 1
			}
			return -1
		}
	case *cast.Unary:
		if id, ok := x.X.(*cast.Ident); ok && id.Obj == iv {
			switch x.Op {
			case cast.PreInc:
				return 1
			case cast.PreDec:
				return -1
			}
		}
	case *cast.Assign:
		id, ok := x.L.(*cast.Ident)
		if !ok || id.Obj != iv {
			return 0
		}
		c, ok := intConst(x.R)
		if !ok || c == 0 {
			return 0
		}
		switch x.Op {
		case cast.AddEq:
			return c
		case cast.SubEq:
			return -c
		}
	}
	return 0
}

// fixedAddr reports whether a reference's address names one fixed
// element: an array subscripted by a compile-time constant (pat[0]),
// or a member selection off such an element. Whatever the surrounding
// control flow, every execution rehits the same location, so its reuse
// distances stay short.
func fixedAddr(e cast.Expr) bool {
	switch x := e.(type) {
	case *cast.Index:
		if _, ok := intConst(x.I); !ok {
			return false
		}
		if _, ok := x.X.(*cast.Ident); ok {
			return true
		}
		return fixedAddr(x.X)
	case *cast.Member:
		if x.Arrow {
			return false
		}
		return fixedAddr(x.X)
	}
	return false
}

// intConst evaluates integer literals, negated literals, enum
// constants, and casts of those.
func intConst(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntLit:
		return int64(x.Val), true
	case *cast.Unary:
		if x.Op == cast.Neg {
			if v, ok := intConst(x.X); ok {
				return -v, true
			}
		}
	case *cast.Ident:
		if x.Obj != nil && x.Obj.Kind == cast.ObjEnumConst {
			return x.Obj.EnumVal, true
		}
	case *cast.CastExpr:
		return intConst(x.X)
	}
	return 0, false
}

// walkLoopExprs visits every statement-attached expression with its
// enclosing-loop stack (outermost first). A for loop's init runs once
// in the outer context; its condition and post run per-iteration.
func walkLoopExprs(s cast.Stmt, loops []cast.Stmt, fn func(e cast.Expr, loops []cast.Stmt)) {
	push := func(l cast.Stmt) []cast.Stmt {
		return append(append([]cast.Stmt{}, loops...), l)
	}
	switch x := s.(type) {
	case nil:
	case *cast.Block:
		for _, c := range x.Stmts {
			walkLoopExprs(c, loops, fn)
		}
	case *cast.If:
		fn(x.Cond, loops)
		walkLoopExprs(x.Then, loops, fn)
		walkLoopExprs(x.Else, loops, fn)
	case *cast.While:
		in := push(x)
		fn(x.Cond, in)
		walkLoopExprs(x.Body, in, fn)
	case *cast.DoWhile:
		in := push(x)
		fn(x.Cond, in)
		walkLoopExprs(x.Body, in, fn)
	case *cast.For:
		if x.Init != nil {
			fn(x.Init, loops)
		}
		in := push(x)
		if x.Cond != nil {
			fn(x.Cond, in)
		}
		if x.Post != nil {
			fn(x.Post, in)
		}
		walkLoopExprs(x.Body, in, fn)
	case *cast.Switch:
		fn(x.Tag, loops)
		for _, c := range x.Cases {
			for _, cs := range c.Stmts {
				walkLoopExprs(cs, loops, fn)
			}
		}
	case *cast.Labeled:
		walkLoopExprs(x.Stmt, loops, fn)
	default:
		cast.StmtExprs(s, func(e cast.Expr) { fn(e, loops) })
	}
}

// collectRefs emits every traceable reference node under e in
// pre-order. The direct operand of & is skipped — &a[i] computes an
// address without touching memory — but expressions nested inside it
// (the subscript of &a[b[j]]) are still visited.
func collectRefs(e cast.Expr, emit func(cast.Expr)) {
	var walk func(e cast.Expr, addrOf bool)
	walk = func(e cast.Expr, addrOf bool) {
		if e == nil {
			return
		}
		if !addrOf && isRefNode(e) {
			emit(e)
		}
		switch x := e.(type) {
		case *cast.Unary:
			walk(x.X, x.Op == cast.Addr)
		case *cast.Postfix:
			walk(x.X, false)
		case *cast.Binary:
			walk(x.X, false)
			walk(x.Y, false)
		case *cast.Logical:
			walk(x.X, false)
			walk(x.Y, false)
		case *cast.Cond:
			walk(x.C, false)
			walk(x.Then, false)
			walk(x.Else, false)
		case *cast.Assign:
			walk(x.L, false)
			walk(x.R, false)
		case *cast.Call:
			walk(x.Fun, false)
			for _, a := range x.Args {
				walk(a, false)
			}
		case *cast.Index:
			walk(x.X, false)
			walk(x.I, false)
		case *cast.Member:
			walk(x.X, false)
		case *cast.CastExpr:
			walk(x.X, false)
		case *cast.Comma:
			walk(x.X, false)
			walk(x.Y, false)
		}
	}
	walk(e, false)
}

// isRefNode reports whether e is a scalar-typed memory access the
// interpreter evaluates as a load or store target. Array- and
// struct-typed subscripts are address computations (they decay or feed
// an enclosing member access) and direct member accesses on plain
// struct variables are frame-resident scalars; both are excluded.
func isRefNode(e cast.Expr) bool {
	ty := e.Type()
	if ty == nil || !ty.IsScalar() {
		return false
	}
	switch x := e.(type) {
	case *cast.Index:
		return true
	case *cast.Unary:
		return x.Op == cast.Deref
	case *cast.Member:
		return x.Arrow || throughMemory(x.X)
	}
	return false
}

// throughMemory reports whether a member-access base chain passes
// through an indexed or dereferenced object (a[i].f) rather than
// naming a plain variable (s.f).
func throughMemory(e cast.Expr) bool {
	for {
		switch x := e.(type) {
		case *cast.Index:
			return true
		case *cast.Unary:
			return x.Op == cast.Deref
		case *cast.Member:
			if x.Arrow {
				return true
			}
			e = x.X
		case *cast.CastExpr:
			e = x.X
		default:
			return false
		}
	}
}

// classify fills Base, ElemSize, and Footprint from the reference's
// address expression.
func classify(r *Ref) {
	r.ElemSize = typeSize(r.Expr.Type())
	switch x := r.Expr.(type) {
	case *cast.Index:
		r.Base = rootBase(x.X)
		r.Footprint = baseFootprint(r.Base, r.ElemSize)
	case *cast.Member:
		if !x.Arrow {
			r.Base = rootBase(x.X)
			// One field per element: the footprint is the element count
			// of the base, i.e. its size over the element-struct stride.
			r.Footprint = baseFootprint(r.Base, typeSize(x.X.Type()))
		}
	case *cast.Unary:
		r.Base = rootBase(x.X)
		r.Footprint = baseFootprint(r.Base, r.ElemSize)
	}
}

func typeSize(t *ctypes.Type) int64 {
	if t == nil {
		return 1
	}
	if s := t.Size(); s > 0 {
		return s
	}
	return 1
}

// rootBase strips subscripts, non-arrow members, and casts down to the
// named object the address is formed from, or nil when the chain
// passes through a pointer dereference or arrow access.
func rootBase(e cast.Expr) *cast.Object {
	for {
		switch x := e.(type) {
		case *cast.Ident:
			if x.Obj != nil && x.Obj.Kind != cast.ObjFunc {
				return x.Obj
			}
			return nil
		case *cast.Index:
			e = x.X
		case *cast.Member:
			if x.Arrow {
				return nil
			}
			e = x.X
		case *cast.CastExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// baseFootprint is the element count of a declared array base; 0 for
// pointer or unknown bases (the object's extent is not static).
func baseFootprint(base *cast.Object, stride int64) float64 {
	if base == nil || base.Type == nil || base.Type.Kind != ctypes.Array {
		return 0
	}
	if stride <= 0 {
		stride = 1
	}
	n := base.Type.Size() / stride
	if n < 1 {
		n = 1
	}
	return float64(n)
}

// addrVaries reports whether the reference's address expression reads
// any variable the loop stores — the syntactic signature of an address
// that moves across iterations.
func addrVaries(ref cast.Expr, stored map[*cast.Object]bool) bool {
	for v := range addrVars(ref) {
		if stored[v] {
			return true
		}
	}
	return false
}

// addrVars collects every variable the reference's address expression
// reads (the array/pointer base and any subscript components).
func addrVars(ref cast.Expr) map[*cast.Object]bool {
	var addr []cast.Expr
	switch x := ref.(type) {
	case *cast.Index:
		addr = []cast.Expr{x.X, x.I}
	case *cast.Member:
		addr = []cast.Expr{x.X}
	case *cast.Unary:
		addr = []cast.Expr{x.X}
	}
	vars := make(map[*cast.Object]bool)
	for _, a := range addr {
		cast.WalkExpr(a, func(e cast.Expr) bool {
			if id, ok := e.(*cast.Ident); ok && id.Obj != nil {
				vars[id.Obj] = true
			}
			return true
		})
	}
	return vars
}
