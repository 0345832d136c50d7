package interp

import (
	"math"

	"staticest/internal/bc"
	"staticest/internal/cast"
	"staticest/internal/ctypes"
)

// value is a runtime value. Integers and encoded pointers live in i;
// floats in f. Struct values are represented by their address in i.
type value struct {
	typ *ctypes.Type
	i   int64
	f   float64
}

// Shared pointer-type singletons: the hot paths (string literals,
// builtin dispatch, array decay) must not allocate a fresh Type per use.
var (
	charPtrType = ctypes.PointerTo(ctypes.CharType)
	voidPtrType = ctypes.PointerTo(ctypes.VoidType)
)

func intValue(v int64, t *ctypes.Type) value { return value{typ: t, i: bc.WidthOf(t).Trunc(v)} }
func floatValue(v float64, t *ctypes.Type) value {
	if t.Kind == ctypes.Float {
		v = float64(float32(v))
	}
	return value{typ: t, f: v}
}
func ptrValue(p uint64, t *ctypes.Type) value { return value{typ: t, i: int64(p)} }

func float32Bits(f float32) uint32     { return math.Float32bits(f) }
func float64Bits(f float64) uint64     { return math.Float64bits(f) }
func float32FromBits(b uint32) float32 { return math.Float32frombits(b) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }

func isTrue(v value) bool {
	if v.typ.IsFloat() {
		return v.f != 0
	}
	return v.i != 0
}

// convert coerces a value to type t following C conversion rules.
func convert(m *Machine, v value, t *ctypes.Type) value {
	if t.Kind == ctypes.Void {
		return value{typ: t}
	}
	switch {
	case t.IsFloat():
		if v.typ.IsFloat() {
			return floatValue(v.f, t)
		}
		if v.typ.IsUnsigned() {
			return floatValue(float64(uint64(v.i)), t)
		}
		return floatValue(float64(v.i), t)
	case t.IsInteger():
		if v.typ.IsFloat() {
			f := v.f
			if math.IsNaN(f) {
				return intValue(0, t)
			}
			if f > math.MaxInt64 {
				f = math.MaxInt64
			}
			if f < math.MinInt64 {
				f = math.MinInt64
			}
			return intValue(int64(f), t)
		}
		return intValue(v.i, t)
	case t.Kind == ctypes.Ptr:
		if v.typ.IsFloat() {
			m.fail("cannot convert floating value to pointer")
		}
		return value{typ: t, i: v.i}
	case t.Kind == ctypes.Struct:
		return value{typ: t, i: v.i}
	}
	m.fail("unsupported conversion from %s to %s", v.typ, t)
	return value{}
}

// eval evaluates an expression to a value. fr may be nil only while
// evaluating global initializers, which must not touch locals.
func (m *Machine) eval(fr *frame, e cast.Expr) value {
	switch x := e.(type) {
	case *cast.IntLit:
		return intValue(int64(x.Val), x.Type())
	case *cast.FloatLit:
		return floatValue(x.Val, x.Type())
	case *cast.StrLit:
		return ptrValue(encodePtr(m.strSeg[x.DataIndex], 0), charPtrType)
	case *cast.Ident:
		obj := x.Obj
		if obj.Kind == cast.ObjFunc {
			if obj.FuncIndex < 0 {
				m.fail("cannot take the value of builtin %q", obj.Name)
			}
			return ptrValue(encodeFnPtr(obj.FuncIndex), ctypes.PointerTo(obj.Type))
		}
		addr := m.objAddr(fr, obj)
		return m.load(addr, obj.Type)
	case *cast.Unary:
		return m.evalUnary(fr, x)
	case *cast.Postfix:
		addr, t := m.lvalue(fr, x.X)
		old := m.load(addr, t)
		if m.memRefs != nil {
			m.traceAccess(x.X, addr, false)
			m.traceAccess(x.X, addr, true)
		}
		delta := int64(1)
		if !x.Inc {
			delta = -1
		}
		m.store(addr, t, m.addScalar(old, delta))
		return old
	case *cast.Binary:
		return m.evalBinary(fr, x)
	case *cast.Logical:
		l := m.eval(fr, x.X)
		if x.AndAnd {
			if !isTrue(l) {
				return intValue(0, ctypes.IntType)
			}
			return intValue(b2i(isTrue(m.eval(fr, x.Y))), ctypes.IntType)
		}
		if isTrue(l) {
			return intValue(1, ctypes.IntType)
		}
		return intValue(b2i(isTrue(m.eval(fr, x.Y))), ctypes.IntType)
	case *cast.Cond:
		if isTrue(m.eval(fr, x.C)) {
			return m.condArm(fr, x, x.Then)
		}
		return m.condArm(fr, x, x.Else)
	case *cast.Assign:
		addr, t := m.lvalue(fr, x.L)
		var v value
		if x.Op == cast.Plain {
			v = convert(m, m.eval(fr, x.R), t)
		} else {
			cur := m.load(addr, t)
			if m.memRefs != nil {
				m.traceAccess(x.L, addr, false)
			}
			r := m.eval(fr, x.R)
			m.curPos = x.Pos() // the operator's, as for a binary operator
			v = convert(m, m.binop(x.Op.BinOp(), cur, r), t)
		}
		m.store(addr, t, v)
		if m.memRefs != nil {
			m.traceAccess(x.L, addr, true)
		}
		return v
	case *cast.Call:
		return m.evalCall(fr, x)
	case *cast.Index:
		addr, t := m.lvalue(fr, x)
		if m.memRefs != nil {
			m.traceAccess(x, addr, false)
		}
		return m.load(addr, t)
	case *cast.Member:
		addr, t := m.lvalue(fr, x)
		if m.memRefs != nil {
			m.traceAccess(x, addr, false)
		}
		return m.load(addr, t)
	case *cast.SizeofExpr:
		return intValue(x.X.Type().Size(), ctypes.LongType)
	case *cast.SizeofType:
		return intValue(x.Of.Size(), ctypes.LongType)
	case *cast.CastExpr:
		return convert(m, m.eval(fr, x.X), castTarget(x.To))
	case *cast.Comma:
		m.eval(fr, x.X)
		return m.eval(fr, x.Y)
	}
	m.fail("interp: unhandled expression %T", e)
	return value{}
}

// castTarget maps a syntactic cast type to a value type (arrays cannot be
// cast targets; void stays void).
func castTarget(t *ctypes.Type) *ctypes.Type { return t }

func (m *Machine) condArm(fr *frame, c *cast.Cond, arm cast.Expr) value {
	v := m.eval(fr, arm)
	if c.Type() != nil && c.Type().Kind != ctypes.Void {
		return convert(m, v, c.Type())
	}
	return v
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// objAddr returns the storage address of a variable object.
func (m *Machine) objAddr(fr *frame, o *cast.Object) uint64 {
	if o.Global {
		return encodePtr(m.globalSeg[o.GlobalIndex], 0)
	}
	if fr == nil {
		m.fail("reference to local %q outside a function", o.Name)
	}
	return m.localAddr(fr, o)
}

// lvalue computes the address and type of an assignable expression.
func (m *Machine) lvalue(fr *frame, e cast.Expr) (uint64, *ctypes.Type) {
	switch x := e.(type) {
	case *cast.Ident:
		if x.Obj.Kind == cast.ObjFunc {
			m.fail("function %q used as lvalue", x.Name)
		}
		return m.objAddr(fr, x.Obj), x.Obj.Type
	case *cast.Unary:
		if x.Op == cast.Deref {
			v := m.eval(fr, x.X)
			if v.i == 0 {
				m.curPos = x.Pos()
				m.fail("null pointer dereference")
			}
			return uint64(v.i), x.Type()
		}
	case *cast.Index:
		base := m.eval(fr, x.X) // arrays decay to pointers in eval
		idx := m.eval(fr, x.I)
		t := x.Type()
		if base.i == 0 {
			m.curPos = x.Pos()
			m.fail("indexing a null pointer")
		}
		return uint64(base.i + idx.i*t.Size()), t
	case *cast.Member:
		if x.Arrow {
			base := m.eval(fr, x.X)
			if base.i == 0 {
				m.curPos = x.Pos()
				m.fail("-> on null pointer")
			}
			return uint64(base.i) + uint64(x.Field.Offset), x.Field.Type
		}
		addr, _ := m.lvalue(fr, x.X)
		return addr + uint64(x.Field.Offset), x.Field.Type
	}
	m.fail("interp: expression is not an lvalue (%T)", e)
	return 0, nil
}

func (m *Machine) evalUnary(fr *frame, x *cast.Unary) value {
	switch x.Op {
	case cast.Neg:
		v := m.eval(fr, x.X)
		if v.typ.IsFloat() {
			return floatValue(-v.f, x.Type())
		}
		return intValue(-v.i, x.Type())
	case cast.BitNot:
		v := m.eval(fr, x.X)
		return intValue(^v.i, x.Type())
	case cast.LogNot:
		return intValue(b2i(!isTrue(m.eval(fr, x.X))), ctypes.IntType)
	case cast.Deref:
		v := m.eval(fr, x.X)
		if v.i == 0 {
			m.curPos = x.Pos()
			m.fail("null pointer dereference")
		}
		if m.memRefs != nil {
			m.traceAccess(x, uint64(v.i), false)
		}
		return m.load(uint64(v.i), x.Type())
	case cast.Addr:
		if id, ok := x.X.(*cast.Ident); ok && id.Obj.Kind == cast.ObjFunc {
			if id.Obj.FuncIndex < 0 {
				m.fail("cannot take the address of builtin %q", id.Obj.Name)
			}
			return ptrValue(encodeFnPtr(id.Obj.FuncIndex), x.Type())
		}
		addr, _ := m.lvalue(fr, x.X)
		return ptrValue(addr, x.Type())
	case cast.PreInc, cast.PreDec:
		addr, t := m.lvalue(fr, x.X)
		old := m.load(addr, t)
		if m.memRefs != nil {
			m.traceAccess(x.X, addr, false)
			m.traceAccess(x.X, addr, true)
		}
		delta := int64(1)
		if x.Op == cast.PreDec {
			delta = -1
		}
		nv := m.addScalar(old, delta)
		m.store(addr, t, nv)
		return nv
	}
	m.fail("interp: unhandled unary %s", x.Op)
	return value{}
}

// addScalar adds delta to an integer, float, or pointer value (pointer
// steps by element size).
func (m *Machine) addScalar(v value, delta int64) value {
	return incr(v, bc.IncWidth(v.typ), delta)
}

// incr is addScalar for a value of width w, as ++ and -- lower it: a
// pointer's width is Generic, and it steps by its element size.
func incr(v value, w bc.Width, delta int64) value {
	switch w {
	case bc.F32:
		return value{typ: v.typ, f: float64(float32(v.f + float64(delta)))}
	case bc.F64:
		return value{typ: v.typ, f: v.f + float64(delta)}
	case bc.Generic:
		if v.typ.Kind == ctypes.Ptr {
			return ptrValue(uint64(v.i+delta*v.typ.Elem.Size()), v.typ)
		}
	}
	return value{typ: v.typ, i: w.Trunc(v.i + delta)}
}

func (m *Machine) evalBinary(fr *frame, x *cast.Binary) value {
	l := m.eval(fr, x.X)
	r := m.eval(fr, x.Y)
	m.curPos = x.Pos()
	return m.binop(x.Op, l, r)
}

func (m *Machine) binop(op cast.BinaryOp, l, r value) value {
	// Pointer arithmetic and comparisons.
	lp := l.typ.Kind == ctypes.Ptr
	rp := r.typ.Kind == ctypes.Ptr
	if lp || rp {
		switch op {
		case cast.Add:
			if lp {
				return ptrValue(uint64(l.i+r.i*l.typ.Elem.Size()), l.typ)
			}
			return ptrValue(uint64(r.i+l.i*r.typ.Elem.Size()), r.typ)
		case cast.Sub:
			if lp && rp {
				esz := l.typ.Elem.Size()
				if esz == 0 {
					esz = 1
				}
				return intValue((l.i-r.i)/esz, ctypes.LongType)
			}
			return ptrValue(uint64(l.i-r.i*l.typ.Elem.Size()), l.typ)
		case cast.Eq, cast.Ne, cast.Lt, cast.Gt, cast.Le, cast.Ge:
			return intValue(b2i(cmpInt(op, uint64(l.i), uint64(r.i))), ctypes.IntType)
		}
		m.fail("invalid pointer operation %s", op)
	}

	ct := ctypes.UsualArith(l.typ, r.typ)
	return m.arith(op, bc.WidthOf(ct), ct, l, r)
}

// arith is binop for two arithmetic operands whose usual-arithmetic
// type is ct, of width w. The bytecode calls it directly when the
// lowering resolved ct.
func (m *Machine) arith(op cast.BinaryOp, w bc.Width, ct *ctypes.Type, l, r value) value {
	if w == bc.F32 || w == bc.F64 {
		lf, rf := toF(l), toF(r)
		var f float64
		switch op {
		case cast.Add:
			f = lf + rf
		case cast.Sub:
			f = lf - rf
		case cast.Mul:
			f = lf * rf
		case cast.Div:
			f = lf / rf
		case cast.Lt:
			return boolValue(lf < rf)
		case cast.Gt:
			return boolValue(lf > rf)
		case cast.Le:
			return boolValue(lf <= rf)
		case cast.Ge:
			return boolValue(lf >= rf)
		case cast.Eq:
			return boolValue(lf == rf)
		case cast.Ne:
			return boolValue(lf != rf)
		default:
			m.fail("invalid floating operation %s", op)
		}
		if w == bc.F32 {
			f = float64(float32(f))
		}
		return value{typ: ct, f: f}
	}
	li, ri := w.Trunc(l.i), w.Trunc(r.i)
	unsigned := w == bc.U32 || w == bc.U64
	var v int64
	switch op {
	case cast.Add:
		v = li + ri
	case cast.Sub:
		v = li - ri
	case cast.Mul:
		v = li * ri
	case cast.Div:
		if ri == 0 {
			m.fail("integer division by zero")
		}
		switch {
		case unsigned:
			v = int64(uint64(li) / uint64(ri))
		case li == math.MinInt64 && ri == -1:
			v = li
		default:
			v = li / ri
		}
	case cast.Rem:
		if ri == 0 {
			m.fail("integer remainder by zero")
		}
		switch {
		case unsigned:
			v = int64(uint64(li) % uint64(ri))
		case li == math.MinInt64 && ri == -1:
			v = 0
		default:
			v = li % ri
		}
	case cast.And:
		v = li & ri
	case cast.Or:
		v = li | ri
	case cast.Xor:
		v = li ^ ri
	case cast.Shl:
		v = li << (uint64(ri) & 63)
	case cast.Shr:
		// Logical for an unsigned type, at its width.
		switch s := uint64(ri) & 63; w {
		case bc.U32:
			v = int64(uint32(li) >> s)
		case bc.U64:
			v = int64(uint64(li) >> s)
		default:
			v = li >> s
		}
	case cast.Lt, cast.Gt, cast.Le, cast.Ge, cast.Eq, cast.Ne:
		if unsigned {
			return boolValue(cmpInt(op, uint64(li), uint64(ri)))
		}
		switch op {
		case cast.Lt:
			return boolValue(li < ri)
		case cast.Gt:
			return boolValue(li > ri)
		case cast.Le:
			return boolValue(li <= ri)
		case cast.Ge:
			return boolValue(li >= ri)
		case cast.Eq:
			return boolValue(li == ri)
		}
		return boolValue(li != ri)
	default:
		m.fail("interp: unhandled binary %s", op)
	}
	return value{typ: ct, i: w.Trunc(v)}
}

// boolValue is a comparison's result: int 0 or 1.
func boolValue(b bool) value { return value{typ: ctypes.IntType, i: b2i(b)} }

func cmpInt(op cast.BinaryOp, a, b uint64) bool {
	switch op {
	case cast.Lt:
		return a < b
	case cast.Gt:
		return a > b
	case cast.Le:
		return a <= b
	case cast.Ge:
		return a >= b
	case cast.Eq:
		return a == b
	case cast.Ne:
		return a != b
	}
	return false
}

func toF(v value) float64 {
	if v.typ.IsFloat() {
		return v.f
	}
	if v.typ.IsUnsigned() {
		return float64(uint64(v.i))
	}
	return float64(v.i)
}

func (m *Machine) evalCall(fr *frame, x *cast.Call) value {
	// Resolve the target first.
	var fnIdx = -1
	var builtinName string
	if callee := x.Callee(); callee != nil {
		if callee.Builtin || callee.FuncIndex < 0 {
			builtinName = callee.Name
		} else {
			fnIdx = callee.FuncIndex
		}
	} else {
		fv := m.eval(fr, x.Fun)
		p := uint64(fv.i)
		if p == 0 {
			m.curPos = x.Pos()
			m.fail("call through null function pointer")
		}
		if !isFnPtr(p) {
			m.curPos = x.Pos()
			m.fail("call through non-function pointer")
		}
		fnIdx = fnPtrIndex(p)
		if fnIdx < 0 || fnIdx >= len(m.sem.Funcs) {
			m.fail("corrupt function pointer")
		}
	}

	args := make([]value, len(x.Args))
	for i, a := range x.Args {
		args[i] = m.eval(fr, a)
	}
	if x.SiteID >= 0 {
		m.prof.CallSiteCounts[x.SiteID]++
	}
	m.curPos = x.Pos()
	if builtinName != "" {
		return m.callBuiltin(builtinName, args, x)
	}
	return m.callFunc(fnIdx, args)
}
