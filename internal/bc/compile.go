package bc

import (
	"fmt"
	"math"

	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
	"staticest/internal/probes"
)

// Compile lowers every function of p for one instrumentation mode:
// plan == nil lowers full instrumentation, a non-nil plan lowers sparse
// instrumentation with the plan's probe placement baked into the
// instruction stream. The lowering is pure — it never mutates p — and
// deterministic, so modules are cached per (program, mode).
//
// The compiler mirrors the tree walker's evaluation order exactly,
// including the points where it sets the ambient error position, the
// order of memory-trace appends, and the constructs it rejects at run
// time (which lower to OpFail with the same message). It also resolves
// what the static types decide: each scalar load and store carries its
// Width, a binary operator on two arithmetic operands carries their
// usual-arithmetic type, and a conversion of a value to the type it
// already has is left out. A construct the
// lowering cannot express — an offset or element size beyond the 32-bit
// operands, which the frontend's ctypes.MaxObjectSize bound rules out —
// returns an error, and interp.Run reports it.
func Compile(p *cfg.Program, plan *probes.Plan) (*Module, error) {
	m := &Module{Funcs: make([]Func, len(p.Graphs))}
	for fi, g := range p.Graphs {
		var fp *probes.FuncPlan
		if plan != nil {
			fp = &plan.Funcs[fi]
		}
		if err := compileFunc(&m.Funcs[fi], p.Sem.Funcs, g, fp, plan); err != nil {
			return nil, fmt.Errorf("bc: %s: %w", g.Fn.Name(), err)
		}
	}
	return m, nil
}

// blockFixup is a forward reference from an instruction operand to a
// block's entry PC.
type blockFixup struct {
	pc      int
	operand byte // 'A' or 'B'
	block   int
}

// switchFixup is a forward reference from a switch-table arm to a block.
type switchFixup struct {
	tab, arm, block int
}

type compiler struct {
	f     *Func
	funcs []*cast.FuncDecl // the program's functions, by function index
	g     *cfg.Graph
	fp    *probes.FuncPlan // nil under full instrumentation
	plan  *probes.Plan     // nil under full instrumentation

	depth, maxDepth int
	// pushed is the type of the value the last compiled expression left
	// on the stack, exactly the pointer the executor's value will carry,
	// or nil when the lowering cannot tell (a builtin's or an indirect
	// call's result).
	pushed *ctypes.Type

	blockPC   []int32
	fixups    []blockFixup
	swFixups  []switchFixup
	constIdx  map[Const]int32
	posIdx    map[ctoken.Pos]int32
	exprIdx   map[cast.Expr]int32
	msgIdx    map[string]int32
	layoutErr error
}

func compileFunc(f *Func, funcs []*cast.FuncDecl, g *cfg.Graph, fp *probes.FuncPlan, plan *probes.Plan) error {
	c := &compiler{
		f: f, funcs: funcs, g: g, fp: fp, plan: plan,
		blockPC:  make([]int32, len(g.Blocks)),
		constIdx: make(map[Const]int32),
		posIdx:   make(map[ctoken.Pos]int32),
		exprIdx:  make(map[cast.Expr]int32),
		msgIdx:   make(map[string]int32),
	}
	f.Entry = int32(g.Entry.ID)
	// The executor enters at Code[0]; lower the entry block first and
	// jump to it if it is not already first in Blocks order.
	if g.Entry.ID != 0 {
		c.emit(Instr{Op: OpJump}, 0)
		c.fixups = append(c.fixups, blockFixup{pc: 0, operand: 'A', block: g.Entry.ID})
	}
	for _, blk := range g.Blocks {
		c.blockPC[blk.ID] = int32(len(f.Code))
		if c.depth != 0 {
			return fmt.Errorf("internal: operand depth %d at block b%d", c.depth, blk.ID)
		}
		if err := c.block(blk); err != nil {
			return err
		}
		if c.depth != 0 {
			return fmt.Errorf("internal: operand depth %d after block b%d", c.depth, blk.ID)
		}
	}
	if c.layoutErr != nil {
		return c.layoutErr
	}
	for _, fx := range c.fixups {
		pc := c.blockPC[fx.block]
		if fx.operand == 'A' {
			f.Code[fx.pc].A = pc
		} else {
			f.Code[fx.pc].B = pc
		}
	}
	for _, fx := range c.swFixups {
		f.Switches[fx.tab].Arms[fx.arm].PC = c.blockPC[fx.block]
	}
	f.MaxStack = c.maxDepth
	return nil
}

// emit appends one instruction, tracking the operand-stack depth change.
func (c *compiler) emit(in Instr, delta int) int {
	c.f.Code = append(c.f.Code, in)
	c.depth += delta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
	return len(c.f.Code) - 1
}

// jumpHere patches a previously emitted jump operand A to the next PC.
func (c *compiler) jumpHere(pc int) { c.f.Code[pc].A = int32(len(c.f.Code)) }

func (c *compiler) blockRef(pc int, operand byte, block int) {
	c.fixups = append(c.fixups, blockFixup{pc: pc, operand: operand, block: block})
}

func (c *compiler) pos(p ctoken.Pos) int32 {
	if i, ok := c.posIdx[p]; ok {
		return i
	}
	i := int32(len(c.f.Pos))
	c.f.Pos = append(c.f.Pos, p)
	c.posIdx[p] = i
	return i
}

func (c *compiler) setPos(p ctoken.Pos) { c.emit(Instr{Op: OpSetPos, A: c.pos(p)}, 0) }

func (c *compiler) constant(k Const) {
	i, ok := c.constIdx[k]
	if !ok {
		i = int32(len(c.f.Consts))
		c.f.Consts = append(c.f.Consts, k)
		c.constIdx[k] = i
	}
	c.emit(Instr{Op: OpConst, A: i}, +1)
}

func (c *compiler) intConst(v int64, t *ctypes.Type) {
	c.constant(Const{Typ: t, I: WidthOf(t).Trunc(v)})
}

func (c *compiler) expr(e cast.Expr) int32 {
	if i, ok := c.exprIdx[e]; ok {
		return i
	}
	i := int32(len(c.f.Exprs))
	c.f.Exprs = append(c.f.Exprs, e)
	c.exprIdx[e] = i
	return i
}

// failWith lowers a construct the tree walker rejects at run time to an
// OpFail carrying the identical pre-formatted message. For depth
// bookkeeping the instruction stands in for the value or address the
// construct would have produced (execution never passes it).
func (c *compiler) failWith(msg string, delta int) {
	i, ok := c.msgIdx[msg]
	if !ok {
		i = int32(len(c.f.Msgs))
		c.f.Msgs = append(c.f.Msgs, msg)
		c.msgIdx[msg] = i
	}
	c.emit(Instr{Op: OpFail, A: i}, delta)
}

// trace emits a memory-trace hook for candidate reference expression e
// whose address sits depth values below the stack top. It costs one nil
// test per execution when tracing is off, mirroring the tree walker's
// guarded traceAccess calls.
func (c *compiler) trace(e cast.Expr, depth int, write bool) {
	w := int32(0)
	if write {
		w = 1
	}
	c.emit(Instr{Op: OpTrace, A: c.expr(e), B: int32(depth), C: w}, 0)
}

func (c *compiler) narrow(what string, v int64) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		if c.layoutErr == nil {
			c.layoutErr = fmt.Errorf("%s %d exceeds the 32-bit instruction operand", what, v)
		}
		return 0
	}
	return int32(v)
}

// --- blocks and terminators -------------------------------------------------

func (c *compiler) block(blk *cfg.Block) error {
	if c.fp != nil {
		c.emit(Instr{Op: OpBlockSparse, A: int32(blk.ID)}, 0)
	} else {
		c.emit(Instr{Op: OpBlockFull, A: int32(blk.ID)}, 0)
	}
	for _, s := range blk.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	switch blk.Term {
	case cfg.TermJump:
		if len(blk.Succs) == 0 {
			// Pruned dead end: the interpreter treats it as return 0.
			if pi := c.exitProbeIdx(blk); pi >= 0 {
				c.emit(Instr{Op: OpProbeRetZero, A: pi}, 0)
			} else {
				c.emit(Instr{Op: OpRetZero}, 0)
			}
			return nil
		}
		if c.fp != nil {
			if pi := c.fp.SuccProbe[blk.ID][0]; pi >= 0 {
				pc := c.emit(Instr{Op: OpProbeJump, A: pi}, 0)
				c.blockRef(pc, 'B', blk.Succs[0].ID)
				return nil
			}
		}
		pc := c.emit(Instr{Op: OpJump}, 0)
		c.blockRef(pc, 'A', blk.Succs[0].ID)
	case cfg.TermCond:
		c.setPos(blk.Cond.Pos())
		if err := c.value(blk.Cond); err != nil {
			return err
		}
		if c.fp == nil {
			br := c.emit(Instr{Op: OpBr, C: int32(blk.BranchSite)}, -1)
			c.blockRef(br, 'A', blk.Succs[0].ID)
			c.blockRef(br, 'B', blk.Succs[1].ID)
			return nil
		}
		p0, p1 := c.fp.SuccProbe[blk.ID][0], c.fp.SuccProbe[blk.ID][1]
		switch {
		case p0 < 0 && p1 < 0:
			br := c.emit(Instr{Op: OpBr, C: -1}, -1)
			c.blockRef(br, 'A', blk.Succs[0].ID)
			c.blockRef(br, 'B', blk.Succs[1].ID)
		case p0 >= 0 && p1 < 0:
			br := c.emit(Instr{Op: OpBrProbe, C: p0 << 1}, -1)
			c.blockRef(br, 'A', blk.Succs[0].ID)
			c.blockRef(br, 'B', blk.Succs[1].ID)
		case p0 < 0 && p1 >= 0:
			br := c.emit(Instr{Op: OpBrProbe, C: p1<<1 | 1}, -1)
			c.blockRef(br, 'A', blk.Succs[0].ID)
			c.blockRef(br, 'B', blk.Succs[1].ID)
		default:
			// Both arms probed: fuse arm 0, trampoline arm 1.
			br := c.emit(Instr{Op: OpBrProbe, C: p0 << 1}, -1)
			c.blockRef(br, 'A', blk.Succs[0].ID)
			c.f.Code[br].B = int32(len(c.f.Code))
			stub := c.emit(Instr{Op: OpProbeJump, A: p1}, 0)
			c.blockRef(stub, 'B', blk.Succs[1].ID)
		}
	case cfg.TermSwitch:
		c.setPos(blk.Tag.Pos())
		if err := c.value(blk.Tag); err != nil {
			return err
		}
		tab := len(c.f.Switches)
		st := SwitchTab{Site: -1}
		if c.fp == nil {
			st.Site = int32(blk.SwitchSite)
		}
		for _, d := range blk.Cases {
			st.Arms = append(st.Arms, SwitchArm{Vals: d.Vals, IsDefault: d.IsDefault})
		}
		c.f.Switches = append(c.f.Switches, st)
		c.emit(Instr{Op: OpSwitch, A: int32(tab)}, -1)
		// Arm targets: straight to the successor block, or through a
		// probe trampoline when the arc carries a sparse counter.
		for slot, succ := range blk.Succs {
			if c.fp != nil {
				if pi := c.fp.SuccProbe[blk.ID][slot]; pi >= 0 {
					c.f.Switches[tab].Arms[slot].PC = int32(len(c.f.Code))
					pc := c.emit(Instr{Op: OpProbeJump, A: pi}, 0)
					c.blockRef(pc, 'B', succ.ID)
					continue
				}
			}
			c.swFixups = append(c.swFixups, switchFixup{tab: tab, arm: slot, block: succ.ID})
		}
	case cfg.TermReturn:
		if blk.RetVal != nil {
			c.setPos(blk.RetVal.Pos())
			if err := c.value(blk.RetVal); err != nil {
				return err
			}
			// The exit probe bumps only after the return value has
			// evaluated: an exit() inside it must leave this frame
			// recorded as escaped, not as having flowed out. Fusing the
			// probe into the return preserves that order.
			if pi := c.exitProbeIdx(blk); pi >= 0 {
				c.emit(Instr{Op: OpProbeRet, A: pi}, -1)
			} else {
				c.emit(Instr{Op: OpRet}, -1)
			}
		} else {
			if pi := c.exitProbeIdx(blk); pi >= 0 {
				c.emit(Instr{Op: OpProbeRetZero, A: pi}, 0)
			} else {
				c.emit(Instr{Op: OpRetZero}, 0)
			}
		}
	}
	return nil
}

// exitProbeIdx returns the sparse exit-probe counter of blk, or -1.
func (c *compiler) exitProbeIdx(blk *cfg.Block) int32 {
	if c.fp == nil {
		return -1
	}
	return c.fp.ExitProbe[blk.ID]
}

// --- statements -------------------------------------------------------------

func (c *compiler) stmt(s cast.Stmt) error {
	c.setPos(s.Pos())
	switch x := s.(type) {
	case *cast.ExprStmt:
		return c.effect(x.X)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if d.Init == nil {
				continue
			}
			if err := c.localInit(d.Obj.FrameOffset, d.Obj.Type, d.Init); err != nil {
				return err
			}
		}
		return nil
	case *cast.Clear:
		c.emit(Instr{Op: OpClear, A: c.narrow("clear offset", x.Off), B: c.narrow("clear size", x.Size)}, 0)
		return nil
	default:
		c.failWith(fmt.Sprintf("interp: unexpected statement %T in basic block", s), 0)
		return nil
	}
}

func (c *compiler) localInit(off int64, t *ctypes.Type, in cast.Init) error {
	switch init := in.(type) {
	case nil:
	case *cast.ExprInit:
		if s, ok := init.X.(*cast.StrLit); ok && t.Kind == ctypes.Array {
			idx := int32(len(c.f.StrInits))
			c.f.StrInits = append(c.f.StrInits, StrInit{Val: s.Val, Size: t.Size()})
			c.emit(Instr{Op: OpInitStr, A: c.narrow("init offset", off), B: idx}, 0)
			return nil
		}
		c.emit(Instr{Op: OpAddrLocal, A: c.narrow("local offset", off)}, +1)
		if err := c.value(init.X); err != nil {
			return err
		}
		c.convert(t)
		c.emit(Instr{Op: OpStoreMem, W: WidthOf(t), Typ: t}, -2)
	case *cast.ListInit:
		switch t.Kind {
		case ctypes.Array:
			esz := t.Elem.Size()
			for i, el := range init.Elems {
				if int64(i) >= t.Len {
					break
				}
				if err := c.localInit(off+int64(i)*esz, t.Elem, el); err != nil {
					return err
				}
			}
		case ctypes.Struct:
			for i, el := range init.Elems {
				if i >= len(t.Info.Fields) {
					break
				}
				f := t.Info.Fields[i]
				if err := c.localInit(off+f.Offset, f.Type, el); err != nil {
					return err
				}
			}
		default:
			if len(init.Elems) == 1 {
				return c.localInit(off, t, init.Elems[0])
			}
		}
	}
	return nil
}

// --- expressions ------------------------------------------------------------

// value compiles e so its value is left on the stack, and c.pushed holds
// its type.
func (c *compiler) value(e cast.Expr) error { return c.compileExpr(e, false) }

// effect compiles e for its side effects only.
func (c *compiler) effect(e cast.Expr) error { return c.compileExpr(e, true) }

func (c *compiler) compileExpr(e cast.Expr, drop bool) error {
	var t *ctypes.Type // the type of the value left, when the lowering knows it
	switch x := e.(type) {
	case *cast.IntLit:
		t = x.Type()
		c.intConst(int64(x.Val), t)
	case *cast.FloatLit:
		t = x.Type()
		f := x.Val
		if t.Kind == ctypes.Float {
			f = float64(float32(f))
		}
		c.constant(Const{Typ: t, F: f})
	case *cast.StrLit:
		t = ctypes.PointerTo(ctypes.CharType)
		c.emit(Instr{Op: OpStr, A: int32(x.DataIndex), Typ: t}, +1)
	case *cast.Ident:
		obj := x.Obj
		if obj.Kind == cast.ObjFunc {
			if obj.FuncIndex < 0 {
				c.failWith(fmt.Sprintf("cannot take the value of builtin %q", obj.Name), +1)
				break
			}
			t = ctypes.PointerTo(obj.Type)
			c.emit(Instr{Op: OpFnPtr, A: int32(obj.FuncIndex), Typ: t}, +1)
			break
		}
		if obj.Global {
			t = c.loadVar(OpLoadGlobal, OpAddrGlobal, int32(obj.GlobalIndex), obj.Type)
		} else {
			t = c.loadVar(OpLoadLocal, OpAddrLocal, c.narrow("local offset", obj.FrameOffset), obj.Type)
		}
	case *cast.Unary:
		var err error
		if t, err = c.unary(x); err != nil {
			return err
		}
	case *cast.Postfix:
		delta := int32(1)
		if !x.Inc {
			delta = -1
		}
		var err error
		if t, err = c.lvalue(x.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpLoadMemKeep, W: WidthOf(t), Typ: t}, +1)
		c.trace(x.X, 1, false)
		c.trace(x.X, 1, true)
		c.emit(Instr{Op: OpPostfix, W: IncWidth(t), A: delta, Typ: t}, -1)
	case *cast.Binary:
		if err := c.value(x.X); err != nil {
			return err
		}
		lt := c.pushed
		if err := c.value(x.Y); err != nil {
			return err
		}
		t = c.binop(x.Op, c.pos(x.Pos()), lt, c.pushed)
	case *cast.Logical:
		if err := c.logical(x); err != nil {
			return err
		}
		t = ctypes.IntType
	case *cast.Cond:
		if err := c.ternary(x); err != nil {
			return err
		}
		if ct := x.Type(); ct != nil && ct.Kind != ctypes.Void {
			t = ct
		}
	case *cast.Assign:
		return c.assign(x, drop)
	case *cast.Call:
		var err error
		if t, err = c.call(x); err != nil {
			return err
		}
	case *cast.Index, *cast.Member:
		lt, err := c.lvalue(e)
		if err != nil {
			return err
		}
		c.trace(e, 0, false)
		t = c.loadMem(lt)
	case *cast.SizeofExpr:
		t = ctypes.LongType
		c.intConst(x.X.Type().Size(), t)
	case *cast.SizeofType:
		t = ctypes.LongType
		c.intConst(x.Of.Size(), t)
	case *cast.CastExpr:
		if err := c.value(x.X); err != nil {
			return err
		}
		c.convert(x.To)
		t = x.To
	case *cast.Comma:
		if err := c.effect(x.X); err != nil {
			return err
		}
		return c.compileExpr(x.Y, drop)
	default:
		c.failWith(fmt.Sprintf("interp: unhandled expression %T", e), +1)
	}
	if drop {
		c.emit(Instr{Op: OpDrop}, -1)
	}
	c.pushed = t
	return nil
}

// binop emits binary operator op on operands of pushed types lt and rt
// and returns its result's type. Two arithmetic operands carry their
// usual-arithmetic type, resolved here once instead of per execution;
// any other pair takes the executor's generic binop, which works the
// types out from the operand values as the tree walker does.
func (c *compiler) binop(op cast.BinaryOp, pos int32, lt, rt *ctypes.Type) *ctypes.Type {
	in := Instr{Op: OpBinop, A: int32(op), B: pos}
	var res *ctypes.Type
	switch {
	case lt == nil || rt == nil:
	case lt.IsArith() && rt.IsArith():
		res = ctypes.UsualArith(lt, rt)
		in.W, in.Typ = WidthOf(res), res
	case lt.Kind == ctypes.Ptr && rt.Kind == ctypes.Ptr && op == cast.Sub:
		res = ctypes.LongType
	case lt.Kind == ctypes.Ptr && rt.IsInteger() && (op == cast.Add || op == cast.Sub):
		res = lt
	case lt.IsInteger() && rt.Kind == ctypes.Ptr && op == cast.Add:
		res = rt
	}
	c.emit(in, -1)
	if op >= cast.Lt { // the comparisons, whose result is an int 0 or 1
		return ctypes.IntType
	}
	return res
}

// convert emits a conversion of the value on the stack to t, unless the
// value already has type t: a scalar converted to its own type is
// unchanged, since every value the executor makes is already truncated
// or rounded to its type.
func (c *compiler) convert(t *ctypes.Type) {
	if c.pushed != t || !t.IsScalar() {
		c.emit(Instr{Op: OpConvert, Typ: t}, 0)
	}
	c.pushed = t
}

func (c *compiler) unary(x *cast.Unary) (*ctypes.Type, error) {
	switch x.Op {
	case cast.Neg:
		if err := c.value(x.X); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpNeg, Typ: x.Type()}, 0)
		return x.Type(), nil
	case cast.BitNot:
		if err := c.value(x.X); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpBitNot, Typ: x.Type()}, 0)
		return x.Type(), nil
	case cast.LogNot:
		if err := c.value(x.X); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpLogNot}, 0)
		return ctypes.IntType, nil
	case cast.Deref:
		if err := c.value(x.X); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpDerefAddr, A: c.pos(x.Pos())}, 0)
		c.trace(x, 0, false)
		return c.loadMem(x.Type()), nil
	case cast.Addr:
		if id, ok := x.X.(*cast.Ident); ok && id.Obj.Kind == cast.ObjFunc {
			if id.Obj.FuncIndex < 0 {
				c.failWith(fmt.Sprintf("cannot take the address of builtin %q", id.Obj.Name), +1)
				return nil, nil
			}
			c.emit(Instr{Op: OpFnPtr, A: int32(id.Obj.FuncIndex), Typ: x.Type()}, +1)
			return x.Type(), nil
		}
		if _, err := c.lvalue(x.X); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpRetype, Typ: x.Type()}, 0)
		return x.Type(), nil
	case cast.PreInc, cast.PreDec:
		delta := int32(1)
		if x.Op == cast.PreDec {
			delta = -1
		}
		t, err := c.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpLoadMemKeep, W: WidthOf(t), Typ: t}, +1)
		c.trace(x.X, 1, false)
		c.trace(x.X, 1, true)
		c.emit(Instr{Op: OpPreInc, W: IncWidth(t), A: delta, Typ: t}, -1)
		return t, nil
	}
	c.failWith(fmt.Sprintf("interp: unhandled unary %s", x.Op), +1)
	return nil, nil
}

func (c *compiler) logical(x *cast.Logical) error {
	if err := c.value(x.X); err != nil {
		return err
	}
	op := OpJumpFalse
	if !x.AndAnd {
		op = OpJumpTrue
	}
	short := c.emit(Instr{Op: op}, -1)
	save := c.depth
	if err := c.value(x.Y); err != nil {
		return err
	}
	c.emit(Instr{Op: OpBool}, 0)
	end := c.emit(Instr{Op: OpJump}, 0)
	c.depth = save
	c.jumpHere(short)
	if x.AndAnd {
		c.intConst(0, ctypes.IntType)
	} else {
		c.intConst(1, ctypes.IntType)
	}
	c.jumpHere(end)
	return nil
}

func (c *compiler) ternary(x *cast.Cond) error {
	if err := c.value(x.C); err != nil {
		return err
	}
	els := c.emit(Instr{Op: OpJumpFalse}, -1)
	save := c.depth
	if err := c.condArm(x, x.Then); err != nil {
		return err
	}
	end := c.emit(Instr{Op: OpJump}, 0)
	c.depth = save
	c.jumpHere(els)
	if err := c.condArm(x, x.Else); err != nil {
		return err
	}
	c.jumpHere(end)
	return nil
}

func (c *compiler) condArm(x *cast.Cond, arm cast.Expr) error {
	if err := c.value(arm); err != nil {
		return err
	}
	if t := x.Type(); t != nil && t.Kind != ctypes.Void {
		c.convert(t)
	}
	return nil
}

func (c *compiler) assign(x *cast.Assign, drop bool) error {
	// Direct scalar variables skip the address push; they are never
	// memory-trace candidates (the reuse table maps only subscripts,
	// dereferences, and member accesses).
	if id, ok := x.L.(*cast.Ident); ok && id.Obj.Kind != cast.ObjFunc {
		return c.assignDirect(x, id.Obj, drop)
	}
	t, err := c.lvalue(x.L)
	if err != nil {
		return err
	}
	w := WidthOf(t)
	if x.Op == cast.Plain {
		if err := c.value(x.R); err != nil {
			return err
		}
	} else {
		c.emit(Instr{Op: OpLoadMemKeep, W: w, Typ: t}, +1)
		c.trace(x.L, 1, false)
		if err := c.value(x.R); err != nil {
			return err
		}
		c.pushed = c.binop(x.Op.BinOp(), c.pos(x.Pos()), t, c.pushed)
	}
	c.convert(t)
	// The write-trace hook precedes the store instruction (the address
	// is still on the stack there); the tree walker appends after the
	// store, but no other append can intervene and a failing store
	// aborts the run, so the trace orders are identical.
	c.trace(x.L, 1, true)
	if drop {
		c.emit(Instr{Op: OpStoreMem, W: w, Typ: t}, -2)
	} else {
		c.emit(Instr{Op: OpStoreMemV, W: w, Typ: t}, -1)
	}
	return nil
}

func (c *compiler) assignDirect(x *cast.Assign, obj *cast.Object, drop bool) error {
	t := obj.Type
	w := WidthOf(t)
	load, store, storeV := OpLoadLocal, OpStoreLocal, OpStoreLocalV
	a := c.narrow("local offset", obj.FrameOffset)
	if obj.Global {
		load, store, storeV = OpLoadGlobal, OpStoreGlobal, OpStoreGlobalV
		a = int32(obj.GlobalIndex)
	}
	if x.Op == cast.Plain {
		if err := c.value(x.R); err != nil {
			return err
		}
	} else {
		c.emit(Instr{Op: load, W: w, A: a, Typ: t}, +1)
		if err := c.value(x.R); err != nil {
			return err
		}
		c.pushed = c.binop(x.Op.BinOp(), c.pos(x.Pos()), t, c.pushed)
	}
	c.convert(t)
	if drop {
		c.emit(Instr{Op: store, W: w, A: a, Typ: t}, -1)
	} else {
		c.emit(Instr{Op: storeV, W: w, A: a, Typ: t}, 0)
	}
	return nil
}

// loadMem emits load-from-address-on-stack for type t and returns the
// loaded value's type, resolving the array/struct representation at
// compile time: struct values are their address and arrays decay to a
// pointer to their first element, so both "loads" are a retype of the
// address already on the stack, touching no memory — exactly what the
// tree walker's m.load produces, minus its per-load PointerTo
// allocation.
func (c *compiler) loadMem(t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array:
		pt := ctypes.PointerTo(t.Elem)
		c.emit(Instr{Op: OpRetype, Typ: pt}, 0)
		return pt
	case ctypes.Struct:
		c.emit(Instr{Op: OpRetype, Typ: t}, 0)
	default:
		c.emit(Instr{Op: OpLoadMem, W: WidthOf(t), Typ: t}, 0)
	}
	return t
}

// loadVar emits a variable rvalue and returns its type: a real load for
// scalars, the decayed/struct address push for arrays and structs.
func (c *compiler) loadVar(load, addr Op, a int32, t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array:
		pt := ctypes.PointerTo(t.Elem)
		c.emit(Instr{Op: addr, A: a, Typ: pt}, +1)
		return pt
	case ctypes.Struct:
		c.emit(Instr{Op: addr, A: a, Typ: t}, +1)
	default:
		c.emit(Instr{Op: load, W: WidthOf(t), A: a, Typ: t}, +1)
	}
	return t
}

// lvalue compiles the address of an assignable expression onto the
// stack and returns its type, mirroring the tree walker's lvalue()
// recursion — including which subexpressions evaluate before a
// non-lvalue construct faults.
func (c *compiler) lvalue(e cast.Expr) (*ctypes.Type, error) {
	switch x := e.(type) {
	case *cast.Ident:
		if x.Obj.Kind == cast.ObjFunc {
			c.failWith(fmt.Sprintf("function %q used as lvalue", x.Name), +1)
			return ctypes.IntType, nil
		}
		if x.Obj.Global {
			c.emit(Instr{Op: OpAddrGlobal, A: int32(x.Obj.GlobalIndex)}, +1)
		} else {
			c.emit(Instr{Op: OpAddrLocal, A: c.narrow("local offset", x.Obj.FrameOffset)}, +1)
		}
		return x.Obj.Type, nil
	case *cast.Unary:
		if x.Op == cast.Deref {
			if err := c.value(x.X); err != nil {
				return nil, err
			}
			c.emit(Instr{Op: OpDerefAddr, A: c.pos(x.Pos())}, 0)
			return x.Type(), nil
		}
	case *cast.Index:
		if err := c.value(x.X); err != nil {
			return nil, err
		}
		if err := c.value(x.I); err != nil {
			return nil, err
		}
		t := x.Type()
		c.emit(Instr{Op: OpIndexAddr, A: c.pos(x.Pos()), B: c.narrow("element size", t.Size())}, -1)
		return t, nil
	case *cast.Member:
		if x.Arrow {
			if err := c.value(x.X); err != nil {
				return nil, err
			}
			c.emit(Instr{Op: OpArrowAddr, A: c.narrow("field offset", x.Field.Offset), B: c.pos(x.Pos())}, 0)
			return x.Field.Type, nil
		}
		if _, err := c.lvalue(x.X); err != nil {
			return nil, err
		}
		if x.Field.Offset != 0 {
			c.emit(Instr{Op: OpMemberAddr, A: c.narrow("field offset", x.Field.Offset)}, 0)
		}
		return x.Field.Type, nil
	}
	c.failWith(fmt.Sprintf("interp: expression is not an lvalue (%T)", e), +1)
	return ctypes.IntType, nil
}

// call compiles a call and returns its result's type: a defined
// function's return type (void as ctypes.VoidType, as the executor
// returns it), or nil for a builtin or an indirect call.
func (c *compiler) call(x *cast.Call) (*ctypes.Type, error) {
	// Resolve the target first, exactly as the tree walker does: an
	// indirect callee expression evaluates — and its null/non-function
	// checks fire — before any argument.
	fnIdx := -1
	builtin := ""
	indirect := false
	if callee := x.Callee(); callee != nil {
		if callee.Builtin || callee.FuncIndex < 0 {
			builtin = callee.Name
		} else {
			fnIdx = callee.FuncIndex
		}
	} else {
		indirect = true
		if err := c.value(x.Fun); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpCheckFn, A: c.pos(x.Pos())}, 0)
	}
	for _, a := range x.Args {
		if err := c.value(a); err != nil {
			return nil, err
		}
	}
	if x.SiteID >= 0 {
		if c.plan != nil {
			if pi := c.plan.SiteProbe[x.SiteID]; pi >= 0 {
				c.emit(Instr{Op: OpProbe, A: pi}, 0)
			}
		} else {
			c.emit(Instr{Op: OpCountSite, A: int32(x.SiteID)}, 0)
		}
	}
	nargs := int32(len(x.Args))
	pos := c.pos(x.Pos())
	switch {
	case indirect:
		c.emit(Instr{Op: OpCallPtr, B: nargs, C: pos}, -int(nargs))
	case builtin != "":
		idx := int32(len(c.f.Builtins))
		c.f.Builtins = append(c.f.Builtins, BuiltinRef{Name: builtin, Call: x})
		c.emit(Instr{Op: OpCallBuiltin, A: idx, B: nargs, C: pos}, -int(nargs)+1)
	default:
		c.emit(Instr{Op: OpCall, A: int32(fnIdx), B: nargs, C: pos}, -int(nargs)+1)
		if ret := c.funcs[fnIdx].Obj.Type.Sig.Ret; ret.Kind != ctypes.Void {
			return ret, nil
		}
		return ctypes.VoidType, nil
	}
	return nil, nil
}
