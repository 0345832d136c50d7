// Package sem performs semantic analysis on a parsed translation unit:
// name resolution, type checking, stack-frame layout, string-literal
// interning, and the numbering of branch and call sites that the profiler
// and estimators key on. Its output, Program, is the shared currency of
// the CFG builder, interpreter, and estimators.
package sem

import (
	"fmt"
	"sort"

	"staticest/internal/cast"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects multiple semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	default:
		return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
	}
}

// CallSite describes one numbered call site.
type CallSite struct {
	ID     int
	Call   *cast.Call
	Caller *cast.FuncDecl
	// Callee is the target function object for direct calls to defined
	// functions; nil for indirect calls (through a pointer).
	Callee *cast.Object
}

// Indirect reports whether the site calls through a pointer.
func (s *CallSite) Indirect() bool { return s.Callee == nil }

// BranchSite describes one numbered two-way branch (the condition of an
// if, while, do-while, or for statement).
type BranchSite struct {
	ID   int
	Stmt cast.BranchStmt
	Func *cast.FuncDecl
}

// SwitchSite describes one numbered switch statement.
type SwitchSite struct {
	ID   int
	Stmt *cast.Switch
	Func *cast.FuncDecl
}

// Program is a fully analyzed translation unit.
type Program struct {
	File       *cast.File
	Funcs      []*cast.FuncDecl
	FuncByName map[string]*cast.FuncDecl
	Main       *cast.FuncDecl

	Globals []*cast.VarDecl
	Strings [][]byte // interned string literals, indexed by StrLit.DataIndex

	CallSites    []*CallSite
	BranchSites  []*BranchSite
	SwitchSites  []*SwitchSite
	CallSitesOf  map[*cast.FuncDecl][]*CallSite
	BranchesOf   map[*cast.FuncDecl][]*BranchSite
	SwitchesOf   map[*cast.FuncDecl][]*SwitchSite
	AddrTaken    []*cast.Object // function objects with AddrTakenCount > 0
	BuiltinsUsed map[string]bool
}

// FuncIndex returns the index of fd in Funcs, or -1.
func (p *Program) FuncIndex(fd *cast.FuncDecl) int {
	if fd == nil {
		return -1
	}
	return fd.Obj.FuncIndex
}

type scope struct {
	parent *scope
	names  map[string]*cast.Object
}

func (s *scope) lookup(name string) *cast.Object {
	for sc := s; sc != nil; sc = sc.parent {
		if o, ok := sc.names[name]; ok {
			return o
		}
	}
	return nil
}

func (s *scope) declare(o *cast.Object) *cast.Object {
	if prev, ok := s.names[o.Name]; ok {
		return prev
	}
	s.names[o.Name] = o
	return nil
}

type checker struct {
	prog    *Program
	globals *scope
	errs    ErrorList

	cur       *cast.FuncDecl
	curScope  *scope
	frameOff  int64
	strIndex  map[string]int
	callID    int
	branchID  int
	switchID  int
	funcObjs  map[string]*cast.Object
	addrTaken map[*cast.Object]bool
}

func (c *checker) errorf(pos ctoken.Pos, format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// Analyze performs semantic analysis and returns the Program.
func Analyze(file *cast.File) (*Program, error) {
	c := &checker{
		prog: &Program{
			File:         file,
			FuncByName:   make(map[string]*cast.FuncDecl),
			CallSitesOf:  make(map[*cast.FuncDecl][]*CallSite),
			BranchesOf:   make(map[*cast.FuncDecl][]*BranchSite),
			SwitchesOf:   make(map[*cast.FuncDecl][]*SwitchSite),
			BuiltinsUsed: make(map[string]bool),
		},
		globals:   &scope{names: make(map[string]*cast.Object)},
		strIndex:  make(map[string]int),
		funcObjs:  make(map[string]*cast.Object),
		addrTaken: make(map[*cast.Object]bool),
	}

	// Pass 1: declare all functions and globals at file scope.
	for i, fd := range file.Funcs {
		fd.Obj.FuncIndex = i
		if prev := c.globals.declare(fd.Obj); prev != nil {
			c.errorf(fd.P, "redefinition of %q", fd.Obj.Name)
		}
		c.funcObjs[fd.Obj.Name] = fd.Obj
		c.prog.FuncByName[fd.Obj.Name] = fd
		if fd.Obj.Name == "main" {
			c.prog.Main = fd
		}
		if fd.Obj.Type.Sig.Ret.Kind == ctypes.Struct {
			c.errorf(fd.P, "function %q returns a struct by value (unsupported)", fd.Obj.Name)
		}
	}
	c.prog.Funcs = file.Funcs
	for _, ext := range file.Externs {
		if _, defined := c.prog.FuncByName[ext.Name]; defined {
			continue
		}
		if bt, ok := Builtins[ext.Name]; ok {
			ext.Builtin = true
			ext.Type = bt
		}
		if c.globals.lookup(ext.Name) == nil {
			c.globals.declare(ext)
		}
	}
	gi := 0
	var globalBytes int64
	for _, g := range file.Globals {
		if g.Obj.Type.Kind == ctypes.Void || (g.Obj.Type.Kind == ctypes.Struct && g.Obj.Type.Size() == 0) {
			c.errorf(g.P, "global %q has incomplete type %s", g.Obj.Name, g.Obj.Type)
		}
		if g.Obj.Type.Kind == ctypes.Array && g.Obj.Type.Len == 0 {
			// Size from initializer: `int a[] = {...}`.
			if li, ok := g.Init.(*cast.ListInit); ok {
				g.Obj.Type = ctypes.ArrayOf(g.Obj.Type.Elem, int64(len(li.Elems)))
			} else if si, ok := g.Init.(*cast.ExprInit); ok {
				if s, ok := si.X.(*cast.StrLit); ok {
					g.Obj.Type = ctypes.ArrayOf(g.Obj.Type.Elem, int64(len(s.Val))+1)
				}
			}
			if g.Obj.Type.Len == 0 {
				c.errorf(g.P, "global array %q has no size", g.Obj.Name)
			}
		}
		if prev := c.globals.declare(g.Obj); prev != nil {
			c.errorf(g.P, "redefinition of %q", g.Obj.Name)
			continue
		}
		g.Obj.GlobalIndex = gi
		gi++
		c.prog.Globals = append(c.prog.Globals, g)
		if globalBytes <= ctypes.MaxObjectSize {
			if globalBytes += g.Obj.Type.Size(); globalBytes > ctypes.MaxObjectSize {
				c.errorf(g.P, "global storage exceeds the %d-byte object limit at %q",
					int64(ctypes.MaxObjectSize), g.Obj.Name)
			}
		}
	}

	// Pass 2: check global initializers (constant-ish expressions; the
	// interpreter evaluates them at startup).
	for _, g := range c.prog.Globals {
		c.cur = nil
		c.curScope = c.globals
		c.checkInit(g.Init, g.Obj.Type, g.P)
	}

	// Pass 3: check function bodies.
	for _, fd := range file.Funcs {
		c.checkFunc(fd)
	}

	// Collect address-taken functions, sorted by name for determinism.
	for o := range c.addrTaken {
		c.prog.AddrTaken = append(c.prog.AddrTaken, o)
	}
	sort.Slice(c.prog.AddrTaken, func(i, j int) bool {
		return c.prog.AddrTaken[i].Name < c.prog.AddrTaken[j].Name
	})

	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.prog, nil
}

func (c *checker) checkFunc(fd *cast.FuncDecl) {
	c.cur = fd
	c.frameOff = 0
	fnScope := &scope{parent: c.globals, names: make(map[string]*cast.Object)}
	c.curScope = fnScope
	for _, p := range fd.Params {
		if p.Type.Kind == ctypes.Struct {
			c.errorf(p.Decl, "parameter %q is a struct by value (unsupported)", p.Name)
		}
		c.allocLocal(p)
		if prev := fnScope.declare(p); prev != nil {
			c.errorf(p.Decl, "duplicate parameter %q", p.Name)
		}
	}

	// Collect labels first so forward gotos resolve. The same walk
	// numbers the statements, a for loop's init and post wrappers too
	// (WalkStmt skips them), so the AST-walk estimators can keep one
	// frequency per statement in a slice.
	labels := map[string]bool{}
	fn, n := fd.Obj.FuncIndex, 0
	number := func(s cast.Stmt) {
		s.SetNumber(fn, n)
		n++
	}
	cast.WalkStmt(fd.Body, func(s cast.Stmt) bool {
		number(s)
		switch x := s.(type) {
		case *cast.Labeled:
			if labels[x.Label] {
				c.errorf(x.P, "duplicate label %q", x.Label)
			}
			labels[x.Label] = true
			fd.Labels = append(fd.Labels, x.Label)
		case *cast.For:
			if x.InitS != nil {
				number(x.InitS)
			}
			if x.PostS != nil {
				number(x.PostS)
			}
		}
		return true
	})
	fd.NumStmts = n

	c.checkStmt(fd.Body, fnScope, labels)
	fd.FrameSize = alignUp(c.frameOff, 8)
	if fd.FrameSize > ctypes.MaxObjectSize {
		c.errorf(fd.P, "function %q: stack frame of %d bytes exceeds the %d-byte object limit",
			fd.Name(), fd.FrameSize, int64(ctypes.MaxObjectSize))
	}
}

func (c *checker) allocLocal(o *cast.Object) {
	size := o.Type.Size()
	if size <= 0 {
		c.errorf(o.Decl, "%s %q has incomplete type %s", o.Kind, o.Name, o.Type)
		size = 8
	}
	align := o.Type.Align()
	c.frameOff = alignUp(c.frameOff, align)
	o.FrameOffset = c.frameOff
	c.frameOff += size
	if o.Kind != cast.ObjParam {
		c.cur.Locals = append(c.cur.Locals, o)
	}
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

func (c *checker) checkStmt(s cast.Stmt, sc *scope, labels map[string]bool) {
	if s == nil {
		return
	}
	c.curScope = sc
	switch x := s.(type) {
	case *cast.Empty:
	case *cast.ExprStmt:
		c.checkExpr(x.X)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if d.Obj.Type.Kind == ctypes.Array && d.Obj.Type.Len == 0 {
				if li, ok := d.Init.(*cast.ListInit); ok {
					d.Obj.Type = ctypes.ArrayOf(d.Obj.Type.Elem, int64(len(li.Elems)))
				} else if si, ok := d.Init.(*cast.ExprInit); ok {
					if str, ok := si.X.(*cast.StrLit); ok {
						d.Obj.Type = ctypes.ArrayOf(d.Obj.Type.Elem, int64(len(str.Val))+1)
					}
				}
				if d.Obj.Type.Len == 0 {
					c.errorf(d.P, "local array %q has no size", d.Obj.Name)
				}
			}
			c.allocLocal(d.Obj)
			if prev := sc.declare(d.Obj); prev != nil {
				c.errorf(d.P, "redefinition of %q in this scope", d.Obj.Name)
			}
			c.checkInit(d.Init, d.Obj.Type, d.P)
		}
	case *cast.Block:
		inner := &scope{parent: sc, names: make(map[string]*cast.Object)}
		for _, st := range x.Stmts {
			c.checkStmt(st, inner, labels)
		}
	case *cast.If:
		c.checkCond(x.Cond)
		x.SetBranchID(c.branchID)
		c.addBranch(x)
		c.checkStmt(x.Then, sc, labels)
		c.checkStmt(x.Else, sc, labels)
	case *cast.While:
		c.checkCond(x.Cond)
		x.SetBranchID(c.branchID)
		c.addBranch(x)
		c.checkStmt(x.Body, sc, labels)
	case *cast.DoWhile:
		c.checkStmt(x.Body, sc, labels)
		c.curScope = sc
		c.checkCond(x.Cond)
		x.SetBranchID(c.branchID)
		c.addBranch(x)
	case *cast.For:
		if x.Init != nil {
			c.checkExpr(x.Init)
		}
		if x.Cond != nil {
			c.checkCond(x.Cond)
			x.SetBranchID(c.branchID)
			c.addBranch(x)
		}
		if x.Post != nil {
			c.checkExpr(x.Post)
		}
		c.checkStmt(x.Body, sc, labels)
	case *cast.Switch:
		t := c.checkExpr(x.Tag)
		if t != nil && !t.IsInteger() {
			c.errorf(x.P, "switch tag must have integer type, got %s", t)
		}
		x.Branch = c.switchID
		c.prog.SwitchSites = append(c.prog.SwitchSites, &SwitchSite{ID: c.switchID, Stmt: x, Func: c.cur})
		c.prog.SwitchesOf[c.cur] = append(c.prog.SwitchesOf[c.cur], c.prog.SwitchSites[len(c.prog.SwitchSites)-1])
		c.switchID++
		seen := map[int64]bool{}
		sawDefault := false
		for _, cs := range x.Cases {
			for _, v := range cs.Vals {
				if seen[v] {
					c.errorf(cs.Pos, "duplicate case value %d", v)
				}
				seen[v] = true
			}
			if cs.IsDefault {
				if sawDefault {
					c.errorf(cs.Pos, "duplicate default case")
				}
				sawDefault = true
			}
			inner := &scope{parent: sc, names: make(map[string]*cast.Object)}
			for _, st := range cs.Stmts {
				c.checkStmt(st, inner, labels)
			}
		}
	case *cast.Break, *cast.Continue:
		// Context validity is enforced structurally by the CFG builder.
	case *cast.Return:
		if x.X != nil {
			t := c.checkExpr(x.X)
			ret := c.cur.Obj.Type.Sig.Ret
			if ret.Kind == ctypes.Void && t != nil {
				c.errorf(x.P, "void function %q returns a value", c.cur.Name())
			}
		}
	case *cast.Goto:
		if !labels[x.Label] {
			c.errorf(x.P, "goto to undeclared label %q", x.Label)
		}
	case *cast.Labeled:
		c.checkStmt(x.Stmt, sc, labels)
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

func (c *checker) addBranch(bs cast.BranchStmt) {
	site := &BranchSite{ID: c.branchID, Stmt: bs, Func: c.cur}
	c.prog.BranchSites = append(c.prog.BranchSites, site)
	c.prog.BranchesOf[c.cur] = append(c.prog.BranchesOf[c.cur], site)
	c.branchID++
}

func (c *checker) checkCond(e cast.Expr) {
	t := c.checkExpr(e)
	if t != nil && !decay(t).IsScalar() {
		c.errorf(e.Pos(), "condition must have scalar type, got %s", t)
	}
}

func (c *checker) checkInit(in cast.Init, t *ctypes.Type, pos ctoken.Pos) {
	switch v := in.(type) {
	case nil:
	case *cast.ExprInit:
		et := c.checkExpr(v.X)
		c.noteFunRef(v.X)
		if et == nil {
			return
		}
		if t.Kind == ctypes.Array && t.Elem.Kind == ctypes.Char {
			if _, ok := v.X.(*cast.StrLit); ok {
				return // char array initialized by string literal
			}
		}
		c.checkAssignable(t, et, v.X, pos)
	case *cast.ListInit:
		switch t.Kind {
		case ctypes.Array:
			if int64(len(v.Elems)) > t.Len {
				c.errorf(pos, "too many initializers for %s", t)
			}
			for _, el := range v.Elems {
				c.checkInit(el, t.Elem, el.Pos())
			}
		case ctypes.Struct:
			if len(v.Elems) > len(t.Info.Fields) {
				c.errorf(pos, "too many initializers for %s", t)
			}
			for i, el := range v.Elems {
				if i < len(t.Info.Fields) {
					c.checkInit(el, t.Info.Fields[i].Type, el.Pos())
				}
			}
		default:
			if len(v.Elems) == 1 {
				c.checkInit(v.Elems[0], t, pos)
			} else {
				c.errorf(pos, "brace initializer for scalar %s", t)
			}
		}
	}
}
