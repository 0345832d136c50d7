package interp

import (
	"staticest/internal/bc"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/ctypes"
	"staticest/internal/obs"
	"staticest/internal/probes"
)

// loweredCache is the per-program bytecode cache hung off
// cfg.Program.Lowered. The full lowering is shared by every
// full-instrumentation run; sparse lowerings are per probe plan, since
// the plan's probe placement is baked into the instruction stream.
type loweredCache struct {
	full   *bc.Module
	sparse map[*probes.Plan]*bc.Module
}

// lowered returns the cached bytecode module for (p, plan), compiling
// it on first use under a "bc.compile" child of sp.
func lowered(p *cfg.Program, plan *probes.Plan, sp *obs.Span) (*bc.Module, error) {
	p.LoweredMu.Lock()
	defer p.LoweredMu.Unlock()
	c, _ := p.Lowered.(*loweredCache)
	if c == nil {
		c = &loweredCache{sparse: make(map[*probes.Plan]*bc.Module)}
		p.Lowered = c
	}
	mod := c.full
	if plan != nil {
		mod = c.sparse[plan]
	}
	if mod != nil {
		return mod, nil
	}
	csp := sp.Child("bc.compile")
	defer csp.End()
	mod, err := bc.Compile(p, plan)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		c.full = mod
	} else {
		c.sparse[plan] = mod
	}
	return mod, nil
}

// runBC is the bytecode twin of callMain: it builds argv, invokes main
// through the bytecode call path, and returns the process exit code.
func (m *Machine) runBC(mod *bc.Module, args []string) int {
	m.mod = mod
	m.vstack = make([]value, 256)
	argc, argvPtr := m.buildArgv(args)
	main := m.sem.Main
	nargs := 0
	if len(main.Params) >= 1 {
		m.vstack[m.vsp] = value{typ: ctypes.IntType, i: argc}
		m.vsp++
		nargs++
	}
	if len(main.Params) >= 2 {
		m.vstack[m.vsp] = value{
			typ: ctypes.PointerTo(ctypes.PointerTo(ctypes.CharType)),
			i:   int64(argvPtr),
		}
		m.vsp++
		nargs++
	}
	m.bcCall(main.Obj.FuncIndex, nargs)
	m.vsp--
	return int(int32(m.vstack[m.vsp].i))
}

// bcCall invokes defined function fnIdx with the top nargs operand-stack
// values as arguments; it pops them and pushes the (converted) return
// value. It mirrors callFunc effect for effect — invocation counters,
// frame trace, depth cap, frame placement, zeroing, parameter binding,
// and return conversion — but allocates nothing: the frame lives on the
// simulated stack and arguments never leave the operand stack.
func (m *Machine) bcCall(fnIdx, nargs int) {
	fd := m.sem.Funcs[fnIdx]
	f := &m.mod.Funcs[fnIdx]
	if m.sparse {
		m.trace = append(m.trace, probes.Escape{Func: fnIdx, Block: int(f.Entry)})
	} else {
		m.prof.FuncCalls[fnIdx]++
	}
	m.calls++

	m.depth++
	if m.depth > 100_000 {
		m.fail("call depth exceeded (runaway recursion in %s)", fd.Name())
	}
	savedSP := m.sp
	frBase := encodePtr(m.stackSeg, m.pushFrame(fd))
	argBase := m.vsp - nargs
	for i, p := range fd.Params {
		if i < nargs {
			m.store(frBase+uint64(p.FrameOffset), p.Type, convert(m, m.vstack[argBase+i], p.Type))
		}
	}
	m.vsp = argBase

	ret := m.execBC(f, fnIdx, frBase)

	m.sp = savedSP
	m.depth--
	if m.sparse {
		m.trace = m.trace[:len(m.trace)-1]
	}
	retT := fd.Obj.Type.Sig.Ret
	if retT.Kind == ctypes.Void {
		ret = value{typ: ctypes.VoidType}
	} else {
		ret = convert(m, ret, retT)
	}
	m.vstack[m.vsp] = ret
	m.vsp++
}

// execBC runs one lowered function body and returns the raw return
// value. The loop indexes m.vstack through the machine (never a cached
// local slice header) because nested calls may grow it.
func (m *Machine) execBC(f *bc.Func, fnIdx int, frBase uint64) value {
	// Reserve the function's operand high-water mark up front so pushes
	// below never grow the stack mid-flight.
	if need := m.vsp + f.MaxStack; need > len(m.vstack) {
		ns := make([]value, need+128)
		copy(ns, m.vstack[:m.vsp])
		m.vstack = ns
	}
	code := f.Code
	frOff := ptrOff(frBase) // the frame's offset in the stack segment
	var counts, pv []float64
	var factor float64
	// tr is this activation's frame-trace slot. Nested calls append to
	// m.trace and may reallocate its backing array, so the pointer is
	// refreshed after every call instruction. Maintaining the trace
	// eagerly is deliberate: a deferred contribution during exit() unwind
	// measures ~20% slower here because the defer disqualifies execBC
	// from open-coding and taxes every return.
	var tr *probes.Escape
	if m.sparse {
		tr = &m.trace[len(m.trace)-1]
		pv = m.pv
	} else {
		counts = m.prof.BlockCounts[fnIdx]
		factor = m.factor[fnIdx]
	}
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.Op {
		// step comes last in the block cases: its slow path, a call
		// that returns, then rejoins at the loop head. Placed first, the
		// join fell on the block's own work, and the compiler reloaded
		// that work's registers from the stack on every block entry.
		case bc.OpBlockFull:
			counts[in.A]++
			m.cycles += float64(in.B) * factor
			m.step()
		case bc.OpBlockSparse:
			tr.Block = int(in.A)
			m.step()
		case bc.OpJump:
			pc = int(in.A) - 1
		case bc.OpBr:
			m.vsp--
			taken := isTrue(m.vstack[m.vsp])
			if in.C >= 0 {
				if taken {
					m.prof.BranchTaken[in.C]++
				} else {
					m.prof.BranchNot[in.C]++
				}
			}
			if taken {
				pc = int(in.A) - 1
			} else {
				pc = int(in.B) - 1
			}
		case bc.OpBrProbe:
			m.vsp--
			if isTrue(m.vstack[m.vsp]) {
				if in.C&1 == 0 {
					pv[in.C>>1]++
				}
				pc = int(in.A) - 1
			} else {
				if in.C&1 == 1 {
					pv[in.C>>1]++
				}
				pc = int(in.B) - 1
			}
		case bc.OpJumpTrue:
			m.vsp--
			if isTrue(m.vstack[m.vsp]) {
				pc = int(in.A) - 1
			}
		case bc.OpJumpFalse:
			m.vsp--
			if !isTrue(m.vstack[m.vsp]) {
				pc = int(in.A) - 1
			}
		case bc.OpSwitch:
			m.vsp--
			tag := m.vstack[m.vsp].i
			st := &f.Switches[in.A]
			arm, def := -1, -1
			for i := range st.Arms {
				a := &st.Arms[i]
				if a.IsDefault {
					def = i
					continue
				}
				for _, v := range a.Vals {
					if v == tag {
						arm = i
					}
				}
				if arm >= 0 {
					break
				}
			}
			if arm < 0 {
				arm = def
			}
			if arm < 0 {
				m.fail("switch value %d matched no arm and no default", tag)
			}
			if st.Site >= 0 {
				m.prof.SwitchArm[st.Site][arm]++
			}
			pc = int(st.Arms[arm].PC) - 1
		case bc.OpRet:
			m.vsp--
			return m.vstack[m.vsp]
		case bc.OpRetZero:
			return value{typ: ctypes.IntType}
		case bc.OpProbeRet:
			pv[in.A]++
			m.vsp--
			return m.vstack[m.vsp]
		case bc.OpProbeRetZero:
			pv[in.A]++
			return value{typ: ctypes.IntType}
		case bc.OpProbe:
			pv[in.A]++
		case bc.OpProbeJump:
			pv[in.A]++
			pc = int(in.B) - 1
		case bc.OpCountSite:
			m.prof.CallSiteCounts[in.A]++
		case bc.OpSetPos:
			m.curPos = f.Pos[in.A]
		case bc.OpFail:
			panic(&RuntimeError{Pos: m.curPos, Msg: f.Msgs[in.A]})
		case bc.OpDrop:
			m.vsp--
		case bc.OpDup:
			m.vstack[m.vsp] = m.vstack[m.vsp-1]
			m.vsp++
		case bc.OpConst:
			k := &f.Consts[in.A]
			m.vstack[m.vsp] = value{typ: k.Typ, i: k.I, f: k.F}
			m.vsp++
		case bc.OpStr:
			m.vstack[m.vsp] = value{typ: in.Typ, i: int64(encodePtr(m.strSeg[in.A], 0))}
			m.vsp++
		case bc.OpFnPtr:
			m.vstack[m.vsp] = value{typ: in.Typ, i: int64(encodeFnPtr(int(in.A)))}
			m.vsp++
		case bc.OpLoadLocal:
			if b := m.frameSlot(frOff+int64(in.A), in.W); b != nil {
				m.vstack[m.vsp] = readScalar(b, in.W, in.Typ)
			} else {
				m.vstack[m.vsp] = m.load(frBase+uint64(in.A), in.Typ)
			}
			m.vsp++
		case bc.OpLoadGlobal:
			m.vstack[m.vsp] = m.loadScalar(encodePtr(m.globalSeg[in.A], 0), in.W, in.Typ)
			m.vsp++
		case bc.OpAddrLocal:
			m.vstack[m.vsp] = value{typ: in.Typ, i: int64(frBase + uint64(in.A))}
			m.vsp++
		case bc.OpAddrGlobal:
			m.vstack[m.vsp] = value{typ: in.Typ, i: int64(encodePtr(m.globalSeg[in.A], 0))}
			m.vsp++
		case bc.OpRetype:
			m.vstack[m.vsp-1].typ = in.Typ
		case bc.OpLoadMem:
			m.vstack[m.vsp-1] = m.loadScalar(uint64(m.vstack[m.vsp-1].i), in.W, in.Typ)
		case bc.OpLoadMemKeep:
			m.vstack[m.vsp] = m.loadScalar(uint64(m.vstack[m.vsp-1].i), in.W, in.Typ)
			m.vsp++
		case bc.OpStoreMem:
			m.vsp -= 2
			m.storeScalar(uint64(m.vstack[m.vsp].i), in.W, in.Typ, m.vstack[m.vsp+1])
		case bc.OpStoreMemV:
			v := m.vstack[m.vsp-1]
			m.storeScalar(uint64(m.vstack[m.vsp-2].i), in.W, in.Typ, v)
			m.vstack[m.vsp-2] = v
			m.vsp--
		case bc.OpStoreLocal:
			m.vsp--
			if b := m.frameSlot(frOff+int64(in.A), in.W); b != nil {
				writeScalar(b, in.W, m.vstack[m.vsp])
			} else {
				m.store(frBase+uint64(in.A), in.Typ, m.vstack[m.vsp])
			}
		case bc.OpStoreLocalV:
			if b := m.frameSlot(frOff+int64(in.A), in.W); b != nil {
				writeScalar(b, in.W, m.vstack[m.vsp-1])
			} else {
				m.store(frBase+uint64(in.A), in.Typ, m.vstack[m.vsp-1])
			}
		case bc.OpStoreGlobal:
			m.vsp--
			m.storeScalar(encodePtr(m.globalSeg[in.A], 0), in.W, in.Typ, m.vstack[m.vsp])
		case bc.OpStoreGlobalV:
			m.storeScalar(encodePtr(m.globalSeg[in.A], 0), in.W, in.Typ, m.vstack[m.vsp-1])
		case bc.OpIndexAddr:
			m.vsp--
			idx := m.vstack[m.vsp]
			base := m.vstack[m.vsp-1]
			if base.i == 0 {
				m.curPos = f.Pos[in.A]
				m.fail("indexing a null pointer")
			}
			m.vstack[m.vsp-1] = value{i: base.i + idx.i*int64(in.B)}
		case bc.OpMemberAddr:
			m.vstack[m.vsp-1].i += int64(in.A)
		case bc.OpArrowAddr:
			if m.vstack[m.vsp-1].i == 0 {
				m.curPos = f.Pos[in.B]
				m.fail("-> on null pointer")
			}
			m.vstack[m.vsp-1] = value{i: m.vstack[m.vsp-1].i + int64(in.A)}
		case bc.OpDerefAddr:
			if m.vstack[m.vsp-1].i == 0 {
				m.curPos = f.Pos[in.A]
				m.fail("null pointer dereference")
			}
		case bc.OpTrace:
			if m.memRefs != nil {
				m.traceAccess(f.Exprs[in.A], uint64(m.vstack[m.vsp-1-int(in.B)].i), in.C != 0)
			}
		case bc.OpInitStr:
			si := &f.StrInits[in.B]
			dst := m.checkedSlice(frBase+uint64(in.A), si.Size)
			n := copy(dst, si.Val)
			if int64(n) < si.Size {
				dst[n] = 0
			}
		case bc.OpClear:
			b := m.checkedSlice(frBase+uint64(in.A), int64(in.B))
			for i := range b {
				b[i] = 0
			}
		case bc.OpBinop:
			m.vsp--
			r := m.vstack[m.vsp]
			if in.B >= 0 {
				m.curPos = f.Pos[in.B]
			}
			if in.W == bc.Generic {
				m.vstack[m.vsp-1] = m.binop(cast.BinaryOp(in.A), m.vstack[m.vsp-1], r)
			} else {
				m.vstack[m.vsp-1] = m.arith(cast.BinaryOp(in.A), in.W, in.Typ, m.vstack[m.vsp-1], r)
			}
		case bc.OpNeg:
			v := m.vstack[m.vsp-1]
			if v.typ.IsFloat() {
				m.vstack[m.vsp-1] = floatValue(-v.f, in.Typ)
			} else {
				m.vstack[m.vsp-1] = intValue(-v.i, in.Typ)
			}
		case bc.OpBitNot:
			m.vstack[m.vsp-1] = intValue(^m.vstack[m.vsp-1].i, in.Typ)
		case bc.OpLogNot:
			m.vstack[m.vsp-1] = intValue(b2i(!isTrue(m.vstack[m.vsp-1])), ctypes.IntType)
		case bc.OpBool:
			m.vstack[m.vsp-1] = intValue(b2i(isTrue(m.vstack[m.vsp-1])), ctypes.IntType)
		case bc.OpConvert:
			m.vstack[m.vsp-1] = convert(m, m.vstack[m.vsp-1], in.Typ)
		case bc.OpPostfix:
			old := m.vstack[m.vsp-1]
			m.storeScalar(uint64(m.vstack[m.vsp-2].i), in.W, in.Typ, incr(old, in.W, int64(in.A)))
			m.vstack[m.vsp-2] = old
			m.vsp--
		case bc.OpPreInc:
			nv := incr(m.vstack[m.vsp-1], in.W, int64(in.A))
			m.storeScalar(uint64(m.vstack[m.vsp-2].i), in.W, in.Typ, nv)
			m.vstack[m.vsp-2] = nv
			m.vsp--
		case bc.OpCheckFn:
			p := uint64(m.vstack[m.vsp-1].i)
			if p == 0 {
				m.curPos = f.Pos[in.A]
				m.fail("call through null function pointer")
			}
			if !isFnPtr(p) {
				m.curPos = f.Pos[in.A]
				m.fail("call through non-function pointer")
			}
			if idx := fnPtrIndex(p); idx < 0 || idx >= len(m.sem.Funcs) {
				m.fail("corrupt function pointer")
			}
		case bc.OpCall:
			m.curPos = f.Pos[in.C]
			m.bcCall(int(in.A), int(in.B))
			if tr != nil {
				tr = &m.trace[len(m.trace)-1]
			}
		case bc.OpCallPtr:
			nargs := int(in.B)
			fnAt := m.vsp - 1 - nargs
			fnIdx := fnPtrIndex(uint64(m.vstack[fnAt].i))
			copy(m.vstack[fnAt:m.vsp-1], m.vstack[fnAt+1:m.vsp])
			m.vsp--
			m.curPos = f.Pos[in.C]
			m.bcCall(fnIdx, nargs)
			if tr != nil {
				tr = &m.trace[len(m.trace)-1]
			}
		case bc.OpCallBuiltin:
			nargs := int(in.B)
			br := &f.Builtins[in.A]
			m.curPos = f.Pos[in.C]
			ret := m.callBuiltin(br.Name, m.vstack[m.vsp-nargs:m.vsp], br.Call)
			m.vsp -= nargs
			m.vstack[m.vsp] = ret
			m.vsp++
		default:
			m.fail("interp: invalid opcode %d at pc %d", in.Op, pc)
		}
	}
}

// --- typed paths ------------------------------------------------------------
//
// The helpers below run the loads and stores whose width the lowering
// resolved: they find the bytes with fewer checks than checkedSlice and
// then decode them as load and store do. A Generic width takes the
// generic code itself. Typed operators and increments call arith and
// incr, which the generic binop and addScalar reach after working the
// width out from their operands.

// frameSlot returns the bytes of an access of width w at offset off of
// the stack segment, or nil when w is Generic or the bytes lie past the
// stack's backing array. A frame slot lies inside the array, which
// pushFrame grew to hold the frame, so this one bounds check stands for
// checkedSlice's.
func (m *Machine) frameSlot(off int64, w bc.Width) []byte {
	if n := w.Size(); n != 0 && off+n <= int64(len(m.stack.data)) {
		return m.stack.data[off : off+n]
	}
	return nil
}

// scalarBytes returns the n bytes at p: checkedSlice, with its common
// case (a live segment, the bytes within its data) checked inline. A
// null, function or freed pointer, and an access past the data, take
// checkedSlice itself, which grows the stack or faults.
func (m *Machine) scalarBytes(p uint64, n int64) []byte {
	if id := p >> offBits; id-1 < uint64(len(m.segs)) {
		s := m.segs[id-1]
		if o := int64(p & offMask); !s.freed && o+n <= int64(len(s.data)) {
			return s.data[o : o+n]
		}
	}
	return m.checkedSlice(p, n)
}

// loadScalar is load for an access of width w.
func (m *Machine) loadScalar(p uint64, w bc.Width, t *ctypes.Type) value {
	if w == bc.Generic {
		return m.load(p, t)
	}
	return readScalar(m.scalarBytes(p, w.Size()), w, t)
}

// storeScalar is store for an access of width w.
func (m *Machine) storeScalar(p uint64, w bc.Width, t *ctypes.Type, v value) {
	if w == bc.Generic {
		m.store(p, t, v)
		return
	}
	writeScalar(m.scalarBytes(p, w.Size()), w, v)
}
