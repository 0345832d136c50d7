// Package bc lowers compiled CFG programs to a flat bytecode the
// interpreter executes without walking AST or CFG structures. The
// lowering is the ROADMAP's "interpreter speed overhaul": one pass over
// each function's control-flow graph emits a dense instruction array
// with integer block, frame-offset, and pool indices, pooled constants
// (pre-truncated to their C types at compile time), and branchless
// counter increments — plain slice index bumps, no map lookups and no
// interface dispatch on the hot path.
//
// A Module is compiled per instrumentation mode: the full-profile and
// sparse-probe lowerings differ structurally (per-block counters and
// branch/switch/site counts versus probe increments on the planned
// off-forest arcs, reached through jump trampolines), so the two modes
// are two modules, each cached on the cfg.Program they lower.
//
// The package deliberately contains no execution state: the execution
// loop lives in internal/interp, where it shares the tree-walking
// evaluator's value representation, memory model, conversions, and
// builtins, so the two engines cannot drift on semantics that are not
// encoded in the instruction stream.
package bc

import (
	"staticest/internal/cast"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Stack effects are noted as [before] -> [after], with the
// stack top rightmost. "addr" values are encoded interpreter pointers
// carried in a value's integer slot.
const (
	OpInvalid Op = iota

	// --- control and profiling ---

	// OpBlockFull opens a block under full instrumentation:
	// steps++/budget check, BlockCounts[fn][A]++, cycles += B*factor.
	OpBlockFull // A=blockID, B=1+len(stmts)
	// OpBlockSparse opens a block under sparse instrumentation:
	// steps++/budget check, frame trace slot set to A.
	OpBlockSparse // A=blockID
	// OpJump continues at instruction A.
	OpJump // A=pc
	// OpBr pops the condition and jumps to A (true) or B (false),
	// counting the outcome under C >= 0 (full mode only). [c] -> []
	OpBr // A=truePC, B=falsePC, C=branchSite or -1
	// OpJumpTrue / OpJumpFalse pop the condition and jump to A when it
	// is true / false (short-circuit and ternary lowering). [c] -> []
	OpJumpTrue  // A=pc
	OpJumpFalse // A=pc
	// OpBrProbe is OpBr for a sparse branch with exactly one probed arm:
	// C packs (probe index << 1 | arm), arm 0 = true. The probe bump
	// rides the dispatch the branch pays anyway; only a branch with both
	// arms probed needs a trampoline for the second. [c] -> []
	OpBrProbe // A=truePC, B=falsePC, C=probe<<1|arm
	// OpSwitch pops the tag and dispatches through Switches[A],
	// replicating the tree walker's first-match arm scan. [tag] -> []
	OpSwitch // A=switch table index
	// OpRet pops the return value and leaves the function. [v] -> []
	OpRet
	// OpRetZero leaves the function returning int 0 (implicit returns
	// and pruned dead-end blocks).
	OpRetZero
	// OpProbeRet / OpProbeRetZero fuse a sparse exit probe into the
	// return, the same one-dispatch trick as OpBrProbe.
	OpProbeRet     // A=probe index; [v] -> []
	OpProbeRetZero // A=probe index
	// OpProbe bumps sparse probe counter A.
	OpProbe // A=probe index
	// OpProbeJump bumps sparse probe counter A and continues at B — the
	// fused form of a probe trampoline, so a probed arc costs one
	// dispatch, not two (sparse must beat full on wall-clock, and the
	// probes are the only work it does that full mode doesn't).
	OpProbeJump // A=probe index, B=pc
	// OpCountSite bumps CallSiteCounts[A] (full mode only).
	OpCountSite // A=call-site ID
	// OpSetPos sets the ambient error position to Pos[A].
	OpSetPos // A=pos index
	// OpFail raises a runtime error with pooled message Msgs[A] at the
	// ambient position (constructs the tree walker rejects at the same
	// evaluation point, e.g. non-lvalue assignment targets).
	OpFail // A=msg index

	// --- operand stack ---

	OpDrop // [v] -> []
	OpDup  // [v] -> [v v]

	// --- constants and addresses ---

	OpConst      // [] -> [Consts[A]]
	OpStr        // [] -> [ptr to string literal A]; Typ=char*
	OpFnPtr      // [] -> [function pointer A]; Typ=result type
	OpLoadLocal  // [] -> [load(frame+A, Typ)]
	OpLoadGlobal // [] -> [load(global A, Typ)]
	OpAddrLocal  // [] -> [addr frame+A]; Typ=result type (may be nil)
	OpAddrGlobal // [] -> [addr of global A]; Typ=result type (may be nil)
	OpRetype     // [v] -> [v with type Typ] (finishes & on an lvalue path)

	// --- memory ---

	OpLoadMem     // [addr] -> [load(addr, Typ)]
	OpLoadMemKeep // [addr] -> [addr load(addr, Typ)]
	OpStoreMem    // [addr v] -> []            store(addr, Typ, v)
	OpStoreMemV   // [addr v] -> [v]           store(addr, Typ, v)
	// Direct stores to scalar variables (plain identifier assignment
	// targets, which are never memory-trace candidates) skip the
	// address push entirely.
	OpStoreLocal   // [v] -> []   store(frame+A, Typ, v)
	OpStoreLocalV  // [v] -> [v]  store(frame+A, Typ, v)
	OpStoreGlobal  // [v] -> []   store(global A, Typ, v)
	OpStoreGlobalV // [v] -> [v]  store(global A, Typ, v)
	OpIndexAddr    // [base idx] -> [addr]; A=posIdx, B=elem size, null base fails
	OpMemberAddr   // [addr] -> [addr+A]
	OpArrowAddr    // [base] -> [base+A]; B=posIdx, null base fails
	OpDerefAddr    // [ptr] -> [ptr as addr]; A=posIdx, null fails
	OpTrace        // memory-trace hook: A=expr index, B=stack depth of addr, C=1 for write
	OpInitStr      // string-literal array init: A=frame offset, B=StrInits index
	OpClear        // zero frame bytes [A, A+B) (inliner Clear statements)

	// --- arithmetic and conversions ---

	OpBinop   // [l r] -> [binop(A, l, r)]; B=posIdx or -1; W, Typ = usual-arithmetic type or Generic
	OpNeg     // [v] -> [-v]; Typ=result type
	OpBitNot  // [v] -> [^v]; Typ=result type
	OpLogNot  // [v] -> [!v as int]
	OpBool    // [v] -> [v != 0 as int]
	OpConvert // [v] -> [convert(v, Typ)]; not emitted when v already has type Typ
	OpPostfix // [addr old] -> [old]; stores old+A (A=±1); Typ=lvalue type
	OpPreInc  // [addr old] -> [new]; stores new=old+A (A=±1); Typ=lvalue type

	// --- calls ---

	OpCheckFn     // [fnptr] -> [fnptr]; validates an indirect callee; A=posIdx
	OpCall        // [args...] -> [ret]; A=fnIdx, B=nargs, C=posIdx
	OpCallPtr     // [fnptr args...] -> [ret]; B=nargs, C=posIdx
	OpCallBuiltin // [args...] -> [ret]; A=Builtins index, B=nargs, C=posIdx
)

// Instr is one bytecode instruction. Operand meaning is per-opcode (see
// the Op constants); Typ carries the static C type the instruction
// loads, stores, converts to, or produces. W, in the padding after Op,
// is that type resolved at lowering (see Width).
type Instr struct {
	Op      Op
	W       Width
	A, B, C int32
	Typ     *ctypes.Type
}

// Width is a scalar C type as a typed instruction uses it: its byte
// width, signedness, and whether it is floating. On loads and stores
// (OpLoad*, OpStore*, OpPostfix, OpPreInc) it is the access; on OpBinop
// it is the usual-arithmetic type of two arithmetic operands, which
// Typ carries as a *ctypes.Type. Generic, the zero value, marks an
// instruction whose types are decided at run time from its operands'
// values: pointer arithmetic, struct copies, and whatever the lowering
// cannot prove.
type Width uint8

// Widths.
const (
	Generic Width = iota
	I8            // char
	U8            // unsigned char
	I16           // short
	U16           // unsigned short
	I32           // int
	U32           // unsigned int
	I64           // long
	U64           // unsigned long, pointers
	F32           // float
	F64           // double
)

// kindWidth is the Width of each scalar ctypes.Kind.
var kindWidth = [...]Width{
	ctypes.Char: I8, ctypes.UChar: U8, ctypes.Short: I16, ctypes.UShort: U16,
	ctypes.Int: I32, ctypes.UInt: U32, ctypes.Long: I64, ctypes.ULong: U64,
	ctypes.Float: F32, ctypes.Double: F64, ctypes.Ptr: U64,
}

// WidthOf resolves a scalar type; anything else is Generic.
func WidthOf(t *ctypes.Type) Width {
	if int(t.Kind) < len(kindWidth) {
		return kindWidth[t.Kind]
	}
	return Generic
}

// IncWidth is the Width of ++ and -- on type t: an arithmetic type's
// own, and Generic for a pointer, which steps by its element size.
func IncWidth(t *ctypes.Type) Width {
	if t.Kind == ctypes.Ptr {
		return Generic
	}
	return WidthOf(t)
}

var widthSize = [...]int64{I8: 1, U8: 1, I16: 2, U16: 2, I32: 4, U32: 4, I64: 8, U64: 8, F32: 4, F64: 8}

// Size is the access's byte count; 0 for Generic.
func (w Width) Size() int64 { return widthSize[w] }

// Trunc reduces v to an integer width and its signedness; 64-bit and
// non-integer widths leave v as it is.
func (w Width) Trunc(v int64) int64 {
	switch w {
	case I8:
		return int64(int8(v))
	case U8:
		return int64(uint8(v))
	case I16:
		return int64(int16(v))
	case U16:
		return int64(uint16(v))
	case I32:
		return int64(int32(v))
	case U32:
		return int64(uint32(v))
	}
	return v
}

// Const is a pooled literal value, pre-coerced to its C type at compile
// time (integers truncated to their width and signedness, float
// literals rounded through float32 when single-precision).
type Const struct {
	Typ *ctypes.Type
	I   int64
	F   float64
}

// BuiltinRef identifies a builtin call site: the dispatch name plus the
// call node some builtins inspect.
type BuiltinRef struct {
	Name string
	Call *cast.Call
}

// StrInit is a pooled `char arr[] = "text"` initializer: the literal
// bytes and the array size to pad within.
type StrInit struct {
	Val  []byte
	Size int64
}

// SwitchArm is one dispatch arm of a lowered switch.
type SwitchArm struct {
	Vals      []int64
	IsDefault bool
	PC        int32
}

// SwitchTab is a lowered switch dispatch table. Site is the switch-site
// ID for full-mode arm counting, or -1.
type SwitchTab struct {
	Site int32
	Arms []SwitchArm
}

// Func is the lowered body of one function.
type Func struct {
	Code []Instr
	// Entry is the CFG entry block ID, pre-resolved so the sparse call
	// path can seed the frame trace without touching graph structures.
	Entry int32
	// MaxStack is the operand-stack high-water mark of one activation,
	// in values; the executor reserves it on entry so pushes never
	// bounds-check against capacity mid-function.
	MaxStack int

	Consts   []Const
	Pos      []ctoken.Pos
	Exprs    []cast.Expr
	Builtins []BuiltinRef
	StrInits []StrInit
	Switches []SwitchTab
	Msgs     []string
}

// Module is a whole program lowered for one instrumentation mode.
type Module struct {
	Sparse bool
	Funcs  []Func
}
