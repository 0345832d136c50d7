// Package interp is a CFG-level interpreter for the C subset. It stands
// in for the paper's instrumented native binaries: executing a program on
// an input while recording the exact dynamic counts a profiler would —
// basic-block executions, branch directions, switch arms, function
// invocations, and call-site counts — plus simulated cycles, the block
// counts priced by cfg.Cycles when the run ends.
package interp

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"staticest/internal/bc"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
	"staticest/internal/sem"
)

// Encoded pointers: bits 40..62 hold the segment ID, bits 0..39 the byte
// offset. Bit 62 tags function pointers, whose low bits hold the function
// index. NULL is 0.
const (
	offBits   = 40
	offMask   = (1 << offBits) - 1
	fnPtrTag  = uint64(1) << 62
	maxSegID  = 1<<22 - 1
	stackSize = 1 << 23 // 8 MiB simulated stack, as the program sees it
	stackInit = 16 << 10
)

func encodePtr(seg uint64, off int64) uint64 { return seg<<offBits | uint64(off)&offMask }
func ptrSeg(p uint64) uint64                 { return (p &^ fnPtrTag) >> offBits }
func ptrOff(p uint64) int64                  { return int64(p & offMask) }
func isFnPtr(p uint64) bool                  { return p&fnPtrTag != 0 }
func encodeFnPtr(idx int) uint64             { return fnPtrTag | uint64(idx) }
func fnPtrIndex(p uint64) int                { return int(p &^ fnPtrTag) }

type segKind int

const (
	segStack segKind = iota
	segGlobal
	segString
	segHeap
)

type segment struct {
	data  []byte
	kind  segKind
	freed bool
	name  string
}

// size is the segment's length as the program sees it. Only the stack's
// backing array can be shorter (see growStack); its bytes past the array
// are untouched and read as zero.
func (s *segment) size() int64 {
	if s.kind == segStack {
		return stackSize
	}
	return int64(len(s.data))
}

// RuntimeError is a C-level runtime fault (null dereference, out of
// bounds access, division by zero, stack overflow, exhausted step
// budget).
type RuntimeError struct {
	Pos ctoken.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

type exitPanic struct{ code int }

// Instrumentation selects how a run is profiled.
type Instrumentation int

// Instrumentation modes.
const (
	// FullInstrumentation counts every basic block, branch outcome,
	// switch arm, function invocation, and call site — the paper's
	// baseline profiler.
	FullInstrumentation Instrumentation = iota
	// SparseInstrumentation increments only the probe counters placed
	// by a probes.Plan; the complete profile is recovered afterwards
	// with probes.Reconstruct. Requires Options.Plan.
	SparseInstrumentation
)

// Options configures a run.
type Options struct {
	// Args are the program arguments (argv[1:]; argv[0] is the program
	// name).
	Args []string
	// Stdin is the byte stream getchar consumes.
	Stdin []byte
	// MaxSteps bounds the number of basic-block executions (0 means the
	// default of 200 million).
	MaxSteps int64
	// Instrumentation selects full or sparse profiling.
	Instrumentation Instrumentation
	// Plan is the probe placement for sparse instrumentation; it must
	// have been built for the program being run.
	Plan *probes.Plan
	// Obs, when non-nil, records a span per run plus counters for
	// blocks executed, function calls, builtin dispatches, probe
	// increments, and step-budget exhaustion. The hot loop carries no
	// observability code: quantities are derived from state the
	// interpreter already maintains and recorded once at run end, so a
	// nil Obs costs nothing (BenchmarkInterpretCompress is the nil-Obs
	// run; BenchmarkObsEnabled is the same run with an observer).
	Obs *obs.Observer
	// Ctx, when it carries a span (see obs.ContextWithSpan), parents
	// the run's "interp.run" span under it — the serving layer uses
	// this to connect an interpreter run to the HTTP request that
	// triggered it. A nil or span-less Ctx leaves spans rooted at Obs.
	// Execution polls Ctx every 2^14 block executions and fails with
	// "run cancelled: <ctx error>" once it is done.
	Ctx context.Context
	// MemRefs, when non-nil, switches on the compact memory-access
	// trace: every execution of a mapped array/pointer reference
	// expression appends one MemAccess to Result.MemTrace. The map
	// assigns each traced expression its reference-site ID (see
	// internal/reuse, which builds it in deterministic CFG order). The
	// default nil map costs the hot loop a single pointer test per
	// candidate access (BenchmarkInterpretCompress is the untraced run;
	// BenchmarkReuseTrace/on is the same run traced and measured).
	MemRefs map[cast.Expr]int32
	// MaxMemAccesses bounds the trace length when MemRefs is set (0
	// means the default of 16 million); exceeding it is a runtime error,
	// like an exhausted step budget.
	MaxMemAccesses int64
}

// MemAccess is one traced memory access: the accessed address and the
// static reference site it came from. Addr is the interpreter's encoded
// pointer (segment ID in the high bits, byte offset in the low bits), so
// equal Addr means the same base object and element — the identity the
// stack-distance analysis in internal/reuse operates on.
type MemAccess struct {
	Addr  uint64
	Ref   int32
	Write bool
}

// Result is the outcome of a run.
type Result struct {
	ExitCode int
	Output   []byte
	// Profile holds the measured counts of a full-instrumentation run;
	// nil under sparse instrumentation (reconstruct from Probes).
	Profile *profile.Profile
	// Probes holds the sparse probe vector of a sparse run; nil under
	// full instrumentation.
	Probes *probes.Vector
	// MemTrace is the memory-access trace of a run with Options.MemRefs
	// set, in execution order; nil otherwise.
	MemTrace []MemAccess
	Steps    int64
}

// Machine executes one program run.
type Machine struct {
	cfgP *cfg.Program
	sem  *sem.Program

	segs      []*segment // segment ID = index + 1
	stackSeg  uint64
	stack     *segment // the stack segment, segs[stackSeg-1]
	sp        int64
	globalSeg []uint64 // by GlobalIndex
	strSeg    []uint64 // by StrLit.DataIndex

	stdin []byte
	inPos int
	out   bytes.Buffer
	rng   uint64
	prof  *profile.Profile
	steps int64
	maxT  int64

	// Sparse instrumentation state, under Run only: the probe plan, the
	// counter vector, and the active-frame trace (one entry per live
	// call, tracking the frame's current block so an exit() can be
	// reconciled with flow conservation afterwards).
	sparse bool
	plan   *probes.Plan
	pv     []float64
	trace  []probes.Escape

	// Memory-access tracing (see Options.MemRefs). memRefs is nil on the
	// default path, so untraced runs pay one pointer test per candidate
	// access and the trace buffer is never allocated.
	memRefs map[cast.Expr]int32
	mtrace  []MemAccess
	memMax  int64

	curPos ctoken.Pos
	depth  int

	// Bytecode state: the module being executed and the operand stack
	// shared by every activation (each function reserves its
	// compile-time high-water mark on entry). Nil/empty under
	// RunReference.
	mod    *bc.Module
	vstack []value
	vsp    int

	// Observability state (see Options.Obs). calls and builtins are
	// plain int64 increments on paths that already do far heavier work;
	// everything else is derived at run end.
	o               *obs.Observer
	calls           int64
	builtins        int64
	budgetExhausted bool

	// Step checkpoint state (see step).
	next int64           // step's slow path runs past it: the sooner of maxT and the next poll of ctx
	ctx  context.Context // nil when nothing can cancel the run
}

// Run executes the program's bytecode lowering (see internal/bc) to
// completion and returns its profile. A program the lowering rejects is
// an error; the frontend's ctypes.MaxObjectSize bound keeps every
// program it accepts within the lowering's 32-bit operands.
func Run(p *cfg.Program, opts Options) (*Result, error) {
	return run(p, opts, func(m *Machine, sp *obs.Span) (int, error) {
		mod, err := lowered(p, m.plan, sp)
		if err != nil {
			return 0, err
		}
		return m.runBC(mod, opts.Args), nil
	})
}

// RunReference executes the program on the tree-walking evaluator, the
// executable semantics the bytecode lowering is differentially checked
// against. Its observables — exit code, output, steps, profile, memory
// trace, error text — are identical to Run's. It runs full
// instrumentation only and returns an error for SparseInstrumentation:
// a sparse run is checked against it by reconstructing the run's
// profile from its probe vector (see check.DiffRuns). Only tests and the
// internal/check oracles call it; production paths call Run.
func RunReference(p *cfg.Program, opts Options) (*Result, error) {
	if opts.Instrumentation == SparseInstrumentation {
		return nil, fmt.Errorf("interp: the reference runs full instrumentation only")
	}
	return run(p, opts, func(m *Machine, _ *obs.Span) (int, error) {
		return m.callMain(opts.Args), nil
	})
}

// run sets up a machine for p, evaluates the global initializers, and
// calls main through exec, which returns the exit code; sp is the run's
// span.
func run(p *cfg.Program, opts Options, exec func(m *Machine, sp *obs.Span) (int, error)) (res *Result, err error) {
	if opts.Instrumentation == SparseInstrumentation {
		if opts.Plan == nil {
			return nil, fmt.Errorf("interp: sparse instrumentation requires a probe plan")
		}
		if opts.Plan.Program() != p {
			return nil, fmt.Errorf("interp: probe plan was built for a different program")
		}
	}
	sp := obs.StartSpanFrom(opts.Ctx, opts.Obs, "interp.run", obs.KV("instr", instrName(opts.Instrumentation)))
	defer sp.End()
	m := newMachine(p, opts)
	defer m.finishObs(sp)
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case exitPanic:
				res = m.result(v.code)
			case *RuntimeError:
				err = v
			default:
				panic(r)
			}
		}
	}()
	if m.sem.Main == nil {
		return nil, fmt.Errorf("interp: program has no main function")
	}
	// Global initializers run on the tree evaluator under both entries:
	// they execute outside any function (no counters, no frame), so the
	// runs stay byte-identical.
	m.initGlobals()
	code, err := exec(m, sp)
	if err != nil {
		return nil, err
	}
	return m.result(code), nil
}

func (m *Machine) result(code int) *Result {
	res := &Result{
		ExitCode: code,
		Output:   append([]byte(nil), m.out.Bytes()...),
		MemTrace: m.mtrace,
		Steps:    m.steps,
	}
	if m.sparse {
		// Frames still on m.trace were unwound by exit(); the
		// reconstructor routes their flow to the virtual exit node.
		res.Probes = &probes.Vector{
			Counts:  m.pv,
			Escapes: append([]probes.Escape(nil), m.trace...),
		}
		return res
	}
	m.prof.Cycles = cfg.Cycles(m.cfgP, m.prof.BlockCounts, nil)
	res.Profile = m.prof
	return res
}

func instrName(i Instrumentation) string {
	if i == SparseInstrumentation {
		return "sparse"
	}
	return "full"
}

// finishObs records the run's counters once, from state the hot loop
// maintained anyway. Called on every exit path, including runtime
// errors (the counters then describe the partial run).
func (m *Machine) finishObs(sp *obs.Span) {
	if m.o == nil {
		return
	}
	m.o.Counter("interp_runs_total").Add(1)
	m.o.Counter("interp_blocks_executed_total").Add(m.steps)
	m.o.Counter("interp_calls_total").Add(m.calls)
	m.o.Counter("interp_builtin_calls_total").Add(m.builtins)
	if m.sparse {
		var incs int64
		for _, c := range m.pv {
			incs += int64(c)
		}
		m.o.Counter("interp_probe_increments_total").Add(incs)
	}
	if m.budgetExhausted {
		m.o.Counter("interp_step_budget_exhausted_total").Add(1)
	}
	sp.SetAttr("steps", m.steps)
	sp.SetAttr("stack_bytes", int64(len(m.stack.data)))
}

func newMachine(p *cfg.Program, opts Options) *Machine {
	sp := p.Sem
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	m := &Machine{
		cfgP:    p,
		sem:     sp,
		stdin:   opts.Stdin,
		rng:     0x2545F4914F6CDD1D,
		maxT:    maxSteps,
		next:    maxSteps,
		o:       opts.Obs,
		memRefs: opts.MemRefs,
		memMax:  opts.MaxMemAccesses,
	}
	if m.memRefs != nil && m.memMax == 0 {
		m.memMax = 16_000_000
	}
	if opts.Ctx != nil && opts.Ctx.Done() != nil {
		m.ctx, m.next = opts.Ctx, min(maxSteps, pollInterval)
	}
	if opts.Instrumentation == SparseInstrumentation {
		m.sparse = true
		m.plan = opts.Plan
		m.pv = make([]float64, opts.Plan.NumProbes)
		// Seed the frame-trace capacity: typical call depths then grow
		// it rarely, so the per-call append is a bounds check and two
		// stores, not a reallocation.
		m.trace = make([]probes.Escape, 0, 256)
	} else {
		blocksPerFunc, numSites, numBranches, switchArms := cfg.ProfileShape(p)
		m.prof = profile.New(blocksPerFunc, numSites, numBranches, switchArms)
	}
	// Segment 1: the stack, backed by stackInit bytes until a frame or an
	// access reaches past them.
	m.stackSeg = m.newSegment(make([]byte, stackInit), segStack, "stack")
	m.stack = m.segs[m.stackSeg-1]
	// Globals, one segment each.
	m.globalSeg = make([]uint64, len(sp.Globals))
	for i, g := range sp.Globals {
		size := g.Obj.Type.Size()
		if size <= 0 {
			size = 8
		}
		m.globalSeg[i] = m.newSegment(make([]byte, size), segGlobal, g.Obj.Name)
	}
	// String literals.
	m.strSeg = make([]uint64, len(sp.Strings))
	for i, s := range sp.Strings {
		data := make([]byte, len(s)+1)
		copy(data, s)
		m.strSeg[i] = m.newSegment(data, segString, fmt.Sprintf("strlit%d", i))
	}
	return m
}

func (m *Machine) newSegment(data []byte, kind segKind, name string) uint64 {
	if len(m.segs) >= maxSegID {
		m.fail("out of memory segments (allocation storm?)")
	}
	m.segs = append(m.segs, &segment{data: data, kind: kind, name: name})
	return uint64(len(m.segs))
}

func (m *Machine) seg(id uint64) *segment {
	if id == 0 || id > uint64(len(m.segs)) {
		m.fail("invalid pointer (segment %d)", id)
	}
	s := m.segs[id-1]
	if s.freed {
		m.fail("use of freed memory (%s)", s.name)
	}
	return s
}

func (m *Machine) fail(format string, args ...any) {
	panic(&RuntimeError{Pos: m.curPos, Msg: fmt.Sprintf(format, args...)})
}

// pollInterval is the number of block executions between two polls of
// Options.Ctx, a fraction of a millisecond of interpretation.
const pollInterval = 1 << 14

// step counts one block execution, once per block under both engines:
// one compare against the next checkpoint.
func (m *Machine) step() {
	m.steps++
	if m.steps > m.next {
		m.checkpoint()
	}
}

// checkpoint is step's slow path: it enforces MaxSteps, polls the
// run's context, and sets the next checkpoint. Without a context, next
// is maxT, so the budget check fails before the poll is reached.
func (m *Machine) checkpoint() {
	if m.steps > m.maxT {
		m.budgetExhausted = true
		m.fail("step budget exceeded (%d block executions)", m.maxT)
	}
	if err := m.ctx.Err(); err != nil {
		m.fail("run cancelled: %v", err)
	}
	m.next = min(m.maxT, m.steps+pollInterval)
}

// checkedSlice returns the byte window [off, off+size) of the pointed-to
// segment, with bounds checking. The checks compare size against the
// bytes left after off, so a size near 2^63 cannot wrap off+size.
func (m *Machine) checkedSlice(p uint64, size int64) []byte {
	if p == 0 {
		m.fail("null pointer dereference")
	}
	if isFnPtr(p) {
		m.fail("data access through function pointer")
	}
	s := m.seg(ptrSeg(p))
	off := ptrOff(p)
	if off < 0 || size < 0 || size > int64(len(s.data))-off {
		m.reach(s, off, size)
	}
	return s.data[off : off+size]
}

// reach is checkedSlice's slow path: an access past the stack's backing
// array grows it, and an access outside its segment fails.
func (m *Machine) reach(s *segment, off, size int64) {
	if off < 0 || size < 0 || size > s.size()-off {
		m.fail("out-of-bounds access: offset %d size %d in %q (%d bytes)",
			off, size, s.name, s.size())
	}
	m.growStack(off + size)
}

// growStack doubles the stack's backing array until it holds end bytes
// (end <= stackSize), so the array never exceeds the greater of
// stackInit and twice the deepest offset touched. The array is
// replaced, not extended in place: a slice of the stack taken before a
// growth no longer aliases it, so a slice that is written must be taken
// after every access that can grow the stack (see copyMem).
func (m *Machine) growStack(end int64) {
	n := int64(len(m.stack.data))
	for n < end {
		n *= 2
	}
	data := make([]byte, n)
	copy(data, m.stack.data)
	m.stack.data = data
}

// traceAccess appends one memory access when e is a mapped reference
// expression (accesses through expressions outside the map — notably
// direct scalar variable reads — are not part of the reuse model).
// Callers guard with m.memRefs != nil, so the disabled path costs one
// pointer test and never reaches here.
func (m *Machine) traceAccess(e cast.Expr, addr uint64, write bool) {
	id, ok := m.memRefs[e]
	if !ok {
		return
	}
	if int64(len(m.mtrace)) >= m.memMax {
		m.fail("memory-trace budget exceeded (%d accesses)", m.memMax)
	}
	m.mtrace = append(m.mtrace, MemAccess{Addr: addr, Ref: id, Write: write})
}

// --- loads and stores -------------------------------------------------------

func (m *Machine) load(p uint64, t *ctypes.Type) value {
	switch t.Kind {
	case ctypes.Struct:
		// Struct values are represented by their address.
		return value{typ: t, i: int64(p)}
	case ctypes.Array:
		// Arrays decay to a pointer to their first element.
		return value{typ: ctypes.PointerTo(t.Elem), i: int64(p)}
	}
	b := m.checkedSlice(p, t.Size())
	w := bc.WidthOf(t)
	if w == bc.Generic {
		m.fail("loadInt of non-integer type %s", t)
	}
	return readScalar(b, w, t)
}

func (m *Machine) store(p uint64, t *ctypes.Type, v value) {
	if t.Kind == ctypes.Struct {
		m.copyMem(p, uint64(v.i), t.Size())
		return
	}
	b := m.checkedSlice(p, t.Size())
	w := bc.WidthOf(t)
	if w == bc.Generic {
		m.fail("storeInt of non-integer type %s", t)
	}
	writeScalar(b, w, v)
}

// readScalar decodes the w.Size() bytes of b as a value of type t.
func readScalar(b []byte, w bc.Width, t *ctypes.Type) value {
	switch w {
	case bc.I8:
		return value{typ: t, i: int64(int8(b[0]))}
	case bc.U8:
		return value{typ: t, i: int64(b[0])}
	case bc.I16:
		return value{typ: t, i: int64(int16(binary.LittleEndian.Uint16(b)))}
	case bc.U16:
		return value{typ: t, i: int64(binary.LittleEndian.Uint16(b))}
	case bc.I32:
		return value{typ: t, i: int64(int32(binary.LittleEndian.Uint32(b)))}
	case bc.U32:
		return value{typ: t, i: int64(binary.LittleEndian.Uint32(b))}
	case bc.F32:
		return value{typ: t, f: float64(float32FromBits(binary.LittleEndian.Uint32(b)))}
	case bc.F64:
		return value{typ: t, f: float64FromBits(binary.LittleEndian.Uint64(b))}
	}
	return value{typ: t, i: int64(binary.LittleEndian.Uint64(b))} // I64, U64
}

// writeScalar encodes v into the w.Size() bytes of b.
func writeScalar(b []byte, w bc.Width, v value) {
	switch w {
	case bc.I8, bc.U8:
		b[0] = byte(v.i)
	case bc.I16, bc.U16:
		binary.LittleEndian.PutUint16(b, uint16(v.i))
	case bc.I32, bc.U32:
		binary.LittleEndian.PutUint32(b, uint32(v.i))
	case bc.F32:
		binary.LittleEndian.PutUint32(b, float32Bits(float32(v.f)))
	case bc.F64:
		binary.LittleEndian.PutUint64(b, float64Bits(v.f))
	default: // I64, U64
		binary.LittleEndian.PutUint64(b, uint64(v.i))
	}
}

// copyMem copies n bytes from src to dst. dst is checked first, so its
// fault is the one reported, but its slice is taken last: checking src
// can grow the stack (see growStack). Go's copy handles overlap.
func (m *Machine) copyMem(dst, src uint64, n int64) {
	m.checkedSlice(dst, n)
	from := m.checkedSlice(src, n)
	copy(m.checkedSlice(dst, n), from)
}

// --- globals ----------------------------------------------------------------

func (m *Machine) initGlobals() {
	for i, g := range m.sem.Globals {
		if g.Init != nil {
			m.storeLocalInit(nil, encodePtr(m.globalSeg[i], 0), g.Obj.Type, g.Init)
		}
	}
}

// --- frames and execution ---------------------------------------------------

type frame struct {
	fn   *cast.FuncDecl
	base uint64 // pointer to frame start in the stack segment
}

func (m *Machine) localAddr(fr *frame, o *cast.Object) uint64 {
	return fr.base + uint64(o.FrameOffset)
}

// buildArgv materializes the program's argv in string segments and
// returns (argc, pointer to the argv array).
func (m *Machine) buildArgv(args []string) (int64, uint64) {
	argv := append([]string{"prog"}, args...)
	ptrs := make([]uint64, len(argv)+1)
	for i, a := range argv {
		data := make([]byte, len(a)+1)
		copy(data, a)
		ptrs[i] = encodePtr(m.newSegment(data, segString, "argv"), 0)
	}
	arrData := make([]byte, 8*len(ptrs))
	for i, p := range ptrs {
		binary.LittleEndian.PutUint64(arrData[i*8:], p)
	}
	return int64(len(argv)), encodePtr(m.newSegment(arrData, segString, "argv[]"), 0)
}

// mainArgs writes the arguments main declares, argc and then argv, to
// dst and returns how many it wrote.
func (m *Machine) mainArgs(dst []value, args []string) int {
	argc, argvPtr := m.buildArgv(args)
	n := min(len(m.sem.Main.Params), 2)
	if n >= 1 {
		dst[0] = value{typ: ctypes.IntType, i: argc}
	}
	if n == 2 {
		dst[1] = value{typ: ctypes.PointerTo(ctypes.PointerTo(ctypes.CharType)), i: int64(argvPtr)}
	}
	return n
}

func (m *Machine) callMain(args []string) int {
	var vals [2]value
	n := m.mainArgs(vals[:], args)
	ret := m.callFunc(m.sem.Main.Obj.FuncIndex, vals[:n])
	return int(int32(ret.i))
}

// callFunc invokes a defined function with already-evaluated arguments.
// The caller's position is restored when the call returns, so a fault
// later in the caller's expression reports the caller's code.
func (m *Machine) callFunc(fnIdx int, args []value) value {
	fd := m.sem.Funcs[fnIdx]
	pos := m.curPos
	m.prof.FuncCalls[fnIdx]++
	m.calls++

	m.depth++
	if m.depth > 100_000 {
		m.fail("call depth exceeded (runaway recursion in %s)", fd.Name())
	}
	savedSP := m.sp
	fr := &frame{fn: fd, base: encodePtr(m.stackSeg, m.pushFrame(fd))}
	// Bind parameters.
	for i, p := range fd.Params {
		if i < len(args) {
			m.store(m.localAddr(fr, p), p.Type, convert(m, args[i], p.Type))
		}
	}

	ret := m.execute(fr, m.cfgP.Graphs[fnIdx], fnIdx)

	m.sp = savedSP
	m.depth--
	m.curPos = pos
	retT := fd.Obj.Type.Sig.Ret
	if retT.Kind == ctypes.Void {
		return value{typ: ctypes.VoidType}
	}
	return convert(m, ret, retT)
}

// pushFrame places fd's frame at the next 16-byte boundary of the
// simulated stack, growing the stack's backing array to hold it, zeroes
// it, and returns its offset. The caller restores m.sp on return.
func (m *Machine) pushFrame(fd *cast.FuncDecl) int64 {
	base := (m.sp + 15) &^ 15
	end := base + fd.FrameSize
	if end > stackSize {
		m.fail("simulated stack overflow in %s", fd.Name())
	}
	m.sp = end
	if end > int64(len(m.stack.data)) {
		m.growStack(end)
	}
	// Zero the frame (C doesn't, but deterministic garbage aids tests;
	// programs in the suite do not rely on uninitialized reads).
	clear(m.stack.data[base:end])
	return base
}

// execute runs the function's CFG, counting every block, branch
// outcome and switch arm, and returns the raw return value.
func (m *Machine) execute(fr *frame, g *cfg.Graph, fnIdx int) value {
	blk := g.Entry
	counts := m.prof.BlockCounts[fnIdx]
	for {
		m.step()
		counts[blk.ID]++

		for _, s := range blk.Stmts {
			m.execStmt(fr, s)
		}
		switch blk.Term {
		case cfg.TermJump:
			if len(blk.Succs) == 0 {
				// Fell off a pruned dead-end; treat as return 0.
				return value{typ: ctypes.IntType}
			}
			blk = blk.Succs[0]
		case cfg.TermCond:
			m.curPos = blk.Cond.Pos()
			taken := isTrue(m.eval(fr, blk.Cond))
			if blk.BranchSite >= 0 {
				if taken {
					m.prof.BranchTaken[blk.BranchSite]++
				} else {
					m.prof.BranchNot[blk.BranchSite]++
				}
			}
			if taken {
				blk = blk.Succs[0]
			} else {
				blk = blk.Succs[1]
			}
		case cfg.TermSwitch:
			m.curPos = blk.Tag.Pos()
			tag := m.eval(fr, blk.Tag).i
			arm := -1
			def := -1
			for i, c := range blk.Cases {
				if c.IsDefault {
					def = i
					continue
				}
				for _, v := range c.Vals {
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
				// No default and no match: fall past the switch. The CFG
				// always synthesizes a default arm, so this is unreachable,
				// but guard anyway.
				m.fail("switch value %d matched no arm and no default", tag)
			}
			if blk.SwitchSite >= 0 {
				m.prof.SwitchArm[blk.SwitchSite][arm]++
			}
			blk = blk.Succs[arm]
		case cfg.TermReturn:
			if blk.RetVal != nil {
				m.curPos = blk.RetVal.Pos()
				return m.eval(fr, blk.RetVal)
			}
			return value{typ: ctypes.IntType}
		}
	}
}

func (m *Machine) execStmt(fr *frame, s cast.Stmt) {
	m.curPos = s.Pos()
	switch x := s.(type) {
	case *cast.ExprStmt:
		m.eval(fr, x.X)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if d.Init == nil {
				continue
			}
			addr := m.localAddr(fr, d.Obj)
			m.storeLocalInit(fr, addr, d.Obj.Type, d.Init)
		}
	case *cast.Clear:
		// Synthesized by the inliner: zero an inlined callee's frame
		// region, exactly as callFunc zeroes a fresh frame.
		b := m.checkedSlice(fr.base+uint64(x.Off), x.Size)
		for i := range b {
			b[i] = 0
		}
	default:
		m.fail("interp: unexpected statement %T in basic block", s)
	}
}

// storeLocalInit evaluates initializer in and stores it at p, an object
// of type t. fr is the frame its expressions are evaluated in: nil for
// a global's initializer, which runs outside any function.
func (m *Machine) storeLocalInit(fr *frame, p uint64, t *ctypes.Type, in cast.Init) {
	switch init := in.(type) {
	case nil:
	case *cast.ExprInit:
		if s, ok := init.X.(*cast.StrLit); ok && t.Kind == ctypes.Array {
			dst := m.checkedSlice(p, t.Size())
			n := copy(dst, s.Val)
			if int64(n) < t.Size() {
				dst[n] = 0
			}
			return
		}
		v := m.eval(fr, init.X)
		m.store(p, t, convert(m, v, t))
	case *cast.ListInit:
		switch t.Kind {
		case ctypes.Array:
			esz := t.Elem.Size()
			for i, el := range init.Elems {
				if int64(i) >= t.Len {
					break
				}
				m.storeLocalInit(fr, p+uint64(int64(i)*esz), t.Elem, el)
			}
		case ctypes.Struct:
			for i, el := range init.Elems {
				if i >= len(t.Info.Fields) {
					break
				}
				f := t.Info.Fields[i]
				m.storeLocalInit(fr, p+uint64(f.Offset), f.Type, el)
			}
		default:
			if len(init.Elems) == 1 {
				m.storeLocalInit(fr, p, t, init.Elems[0])
			}
		}
	}
}
