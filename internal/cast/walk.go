package cast

// WalkExpr calls fn for e and every sub-expression, pre-order. If fn
// returns false for a node, its children are skipped.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *IntLit, *FloatLit, *StrLit, *Ident, *SizeofType:
	case *Unary:
		WalkExpr(x.X, fn)
	case *Postfix:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	case *Logical:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	case *Cond:
		WalkExpr(x.C, fn)
		WalkExpr(x.Then, fn)
		WalkExpr(x.Else, fn)
	case *Assign:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Call:
		WalkExpr(x.Fun, fn)
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Index:
		WalkExpr(x.X, fn)
		WalkExpr(x.I, fn)
	case *Member:
		WalkExpr(x.X, fn)
	case *SizeofExpr:
		WalkExpr(x.X, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	case *Comma:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	}
}

// WalkStmt calls fn for s and every sub-statement, pre-order. If fn
// returns false for a node, its children are skipped. Expressions are not
// visited; use WalkStmtExprs for that.
func WalkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch x := s.(type) {
	case *Block:
		for _, c := range x.Stmts {
			WalkStmt(c, fn)
		}
	case *If:
		WalkStmt(x.Then, fn)
		WalkStmt(x.Else, fn)
	case *While:
		WalkStmt(x.Body, fn)
	case *DoWhile:
		WalkStmt(x.Body, fn)
	case *For:
		WalkStmt(x.Body, fn)
	case *Switch:
		for _, c := range x.Cases {
			for _, cs := range c.Stmts {
				WalkStmt(cs, fn)
			}
		}
	case *Labeled:
		WalkStmt(x.Stmt, fn)
	}
}

// StmtExprs returns the expressions directly attached to s (not those of
// nested statements): the expression of an ExprStmt, condition of a
// branch, initializers of a declaration, and so on.
func StmtExprs(s Stmt) []Expr {
	switch x := s.(type) {
	case *ExprStmt:
		return []Expr{x.X}
	case *DeclStmt:
		var out []Expr
		for _, d := range x.Decls {
			out = append(out, initExprs(d.Init)...)
		}
		return out
	case *If:
		return []Expr{x.Cond}
	case *While:
		return []Expr{x.Cond}
	case *DoWhile:
		return []Expr{x.Cond}
	case *For:
		var out []Expr
		for _, e := range []Expr{x.Init, x.Cond, x.Post} {
			if e != nil {
				out = append(out, e)
			}
		}
		return out
	case *Switch:
		return []Expr{x.Tag}
	case *Return:
		if x.X != nil {
			return []Expr{x.X}
		}
	}
	return nil
}

func initExprs(in Init) []Expr {
	switch v := in.(type) {
	case nil:
		return nil
	case *ExprInit:
		return []Expr{v.X}
	case *ListInit:
		var out []Expr
		for _, e := range v.Elems {
			out = append(out, initExprs(e)...)
		}
		return out
	}
	return nil
}

// WalkFuncExprs visits every expression in the function body, including
// those nested in statements, pre-order.
func WalkFuncExprs(fd *FuncDecl, fn func(Expr) bool) {
	WalkStmt(fd.Body, func(s Stmt) bool {
		for _, e := range StmtExprs(s) {
			WalkExpr(e, fn)
		}
		return true
	})
}

// Calls returns every call expression in the function body, in source
// order.
func Calls(fd *FuncDecl) []*Call {
	var out []*Call
	WalkFuncExprs(fd, func(e Expr) bool {
		if c, ok := e.(*Call); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// ContainsCallMatching reports whether any direct call in the statement
// subtree targets a function object satisfying pred.
func ContainsCallMatching(s Stmt, pred func(*Object) bool) bool {
	found := false
	WalkStmt(s, func(st Stmt) bool {
		if found {
			return false
		}
		for _, e := range StmtExprs(st) {
			WalkExpr(e, func(x Expr) bool {
				if found {
					return false
				}
				if c, ok := x.(*Call); ok {
					if callee := c.Callee(); callee != nil && pred(callee) {
						found = true
						return false
					}
				}
				return true
			})
		}
		return !found
	})
	return found
}

// ContainsReturn reports whether the statement subtree contains a return.
func ContainsReturn(s Stmt) bool {
	found := false
	WalkStmt(s, func(st Stmt) bool {
		if _, ok := st.(*Return); ok {
			found = true
		}
		return !found
	})
	return found
}

// StoredObjects returns the set of variable objects assigned (or
// incremented/decremented) anywhere in the statement subtree.
func StoredObjects(s Stmt) map[*Object]bool {
	out := make(map[*Object]bool)
	WalkStmt(s, func(st Stmt) bool {
		for _, e := range StmtExprs(st) {
			WalkExpr(e, func(x Expr) bool {
				var target Expr
				switch a := x.(type) {
				case *Assign:
					target = a.L
				case *Unary:
					if a.Op == PreInc || a.Op == PreDec {
						target = a.X
					}
				case *Postfix:
					target = a.X
				}
				if id, ok := target.(*Ident); ok && id.Obj != nil &&
					(id.Obj.Kind == ObjVar || id.Obj.Kind == ObjParam) {
					out[id.Obj] = true
				}
				return true
			})
		}
		return true
	})
	return out
}

// ReadObjects returns the set of variable objects read anywhere in the
// statement subtree (appearing outside the left side of a plain
// assignment).
func ReadObjects(s Stmt) map[*Object]bool {
	out := make(map[*Object]bool)
	var visit func(e Expr, store bool)
	visit = func(e Expr, store bool) {
		switch x := e.(type) {
		case nil:
			return
		case *Ident:
			if !store && x.Obj != nil && (x.Obj.Kind == ObjVar || x.Obj.Kind == ObjParam) {
				out[x.Obj] = true
			}
		case *Assign:
			// Plain assignment writes L without reading it; compound
			// assignments read it too.
			visit(x.L, x.Op == Plain)
			visit(x.R, false)
		case *Unary:
			visit(x.X, false)
		case *Postfix:
			visit(x.X, false)
		case *Binary:
			visit(x.X, false)
			visit(x.Y, false)
		case *Logical:
			visit(x.X, false)
			visit(x.Y, false)
		case *Cond:
			visit(x.C, false)
			visit(x.Then, false)
			visit(x.Else, false)
		case *Call:
			visit(x.Fun, false)
			for _, a := range x.Args {
				visit(a, false)
			}
		case *Index:
			visit(x.X, false)
			visit(x.I, false)
		case *Member:
			visit(x.X, false)
		case *SizeofExpr, *SizeofType, *IntLit, *FloatLit, *StrLit:
		case *CastExpr:
			visit(x.X, false)
		case *Comma:
			visit(x.X, false)
			visit(x.Y, false)
		}
	}
	WalkStmt(s, func(st Stmt) bool {
		for _, e := range StmtExprs(st) {
			visit(e, false)
		}
		return true
	})
	return out
}
