// Package gen is a seeded, deterministic random program generator for
// the C subset the pipeline understands (a Csmith in miniature). Every
// generated program is valid input for the whole pipeline — it parses,
// type-checks, builds CFGs, and terminates under the interpreter — and
// the grammar is deliberately biased to exercise every branch heuristic
// the paper's smart predictor implements: pointer/NULL comparisons,
// `&&`/`||` conditions, equality tests, arms that call a no-return
// wrapper, arms that return early, arms that store read variables,
// bounded recursion, and switches with and without defaults.
//
// Termination is by construction, not by luck: every loop iterates on a
// dedicated counter with a constant bound that the body never writes,
// `continue` is only emitted where it cannot skip the counter update
// (for-loop bodies), and recursive functions decrement an explicit
// depth parameter with a base case guarding every recursive call.
//
// Determinism is part of the API: two Generators built with the same
// seed produce byte-identical program sequences, so a
// failing program can always be regenerated from (seed, index) alone.
package gen

import (
	"bytes"
	"fmt"
	"math/rand"
)

// PadMarker is the comment the generator plants immediately before
// main's final output statement. The dead-branch metamorphic mutation
// (see Mutate) replaces it with a constant-false conditional, which
// must not change any estimate for the pre-existing code.
const PadMarker = "/*PAD*/"

// Bounds on the generator's output.
const (
	// maxHelpers is the most helper functions besides main (at least 1
	// is always generated).
	maxHelpers = 4
	// maxDepth bounds statement nesting: loops and branches stop
	// nesting at this depth.
	maxDepth = 3
	// maxExpr bounds expression tree depth.
	maxExpr = 3
	// maxLoop is the largest constant loop bound.
	maxLoop = 9
	// maxStmts is the most statements emitted per block.
	maxStmts = 5
	// recDepth is the largest recursion-depth constant passed to
	// recursive helpers.
	recDepth = 6
)

// Generator produces a deterministic sequence of programs from a seed.
type Generator struct {
	rng  *rand.Rand
	seed int64
	n    int
}

// New returns a generator for seed.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Program returns the next program in the generator's sequence as C
// source. Successive calls yield distinct programs; the i-th program of
// two same-seed generators is byte-identical.
func (g *Generator) Program() []byte {
	g.n++
	p := &progGen{rng: g.rng}
	return p.program(g.seed, g.n)
}

// Source is a convenience for one-shot use: the first program of
// New(seed).
func Source(seed int64) []byte { return New(seed).Program() }

// helper describes an emitted function later code may call.
type helper struct {
	name      string
	params    int
	recursive bool    // first argument is a depth bound
	noReturn  bool    // calls exit on every path
	weight    float64 // static upper bound on blocks one call executes
}

// Work-budget caps: mult is the product of enclosing loop bounds; a
// call site may only be emitted when mult times the callee's weight
// stays under callWork, and loops stop nesting once mult exceeds
// loopMult. Together they bound every generated run to well under a
// million block executions regardless of how statements compose.
const (
	callWork = 100_000.0
	loopMult = 2_000.0
)

// progGen holds the state of one program emission.
type progGen struct {
	rng *rand.Rand
	b   *bytes.Buffer
	ind int

	globals []string // scalar int globals
	arrays  []string // int arrays of size arraySize
	funcs   []helper // emitted, callable helpers

	// Per-function state.
	fn fnState
}

const arraySize = 16

// fnState is the scope of the function currently being generated.
type fnState struct {
	vars     []string // readable+writable ints (locals and params)
	ptrs     []string // pointer locals
	counters []string // loop counters: readable, never written by bodies
	ctrl     []byte   // enclosing break targets: 'f','w','d' loops, 's' switch
	varID    int
	loopID   int
	mult     float64 // product of enclosing loop bounds
	weight   float64 // accumulated work bound for this function
	// rec is set inside a recursive helper: the function and its depth
	// parameter. Recursive calls always pass recN - 1.
	rec  *helper
	recN string
}

func (p *progGen) rnd(n int) int         { return p.rng.Intn(n) }
func (p *progGen) chance(c float64) bool { return p.rng.Float64() < c }

func (p *progGen) pick(list []string) string { return list[p.rnd(len(list))] }

// writable is vars minus the recursion depth parameter: termination
// depends on that parameter strictly decreasing, so no assignment (and
// no pointer) may ever target it.
func (p *progGen) writable() []string {
	if p.fn.recN == "" {
		return p.fn.vars
	}
	w := make([]string, 0, len(p.fn.vars))
	for _, v := range p.fn.vars {
		if v != p.fn.recN {
			w = append(w, v)
		}
	}
	return w
}

func (p *progGen) line(format string, args ...any) {
	for i := 0; i < p.ind; i++ {
		p.b.WriteByte('\t')
	}
	fmt.Fprintf(p.b, format, args...)
	p.b.WriteByte('\n')
}

// program emits one complete translation unit.
func (p *progGen) program(seed int64, index int) []byte {
	var out bytes.Buffer
	p.b = &out
	fmt.Fprintf(&out, "/* generated: seed=%d program=%d */\n", seed, index)
	out.WriteString("#include <stdio.h>\n#include <stdlib.h>\n\n")

	// Globals: a few scalars and one or two arrays.
	nGlob := 1 + p.rnd(3)
	for i := 0; i < nGlob; i++ {
		name := fmt.Sprintf("g%d", i)
		p.globals = append(p.globals, name)
		if p.chance(0.5) {
			p.line("int %s = %d;", name, p.rnd(20)-5)
		} else {
			p.line("int %s;", name)
		}
	}
	nArr := 1 + p.rnd(2)
	for i := 0; i < nArr; i++ {
		name := fmt.Sprintf("arr%d", i)
		p.arrays = append(p.arrays, name)
		p.line("int %s[%d];", name, arraySize)
	}
	out.WriteByte('\n')

	// A no-return wrapper, most of the time: the error-call heuristic
	// needs one to fire through.
	if p.chance(0.8) {
		p.emitDie()
	}
	// Helpers, then a recursive helper, then main. Functions only call
	// previously emitted functions, so no forward declarations needed.
	nHelp := 1 + p.rnd(maxHelpers)
	for i := 0; i < nHelp; i++ {
		p.emitHelper(fmt.Sprintf("f%d", i))
	}
	if p.chance(0.75) {
		p.emitRecursive("rec0")
	}
	p.emitMain()
	return out.Bytes()
}

// emitDie writes the no-return wrapper the call heuristic keys on.
func (p *progGen) emitDie() {
	p.line("int die0(int a0) {")
	p.ind++
	p.line(`printf("bail %%d\n", a0);`)
	p.line("exit(a0 & 7);")
	p.line("return 0;")
	p.ind--
	p.line("}")
	p.b.WriteByte('\n')
	p.funcs = append(p.funcs, helper{name: "die0", params: 1, noReturn: true})
}

// emitFunc renders one function: signature, declarations (collected
// while the body is generated into a side buffer), body, final return.
// body runs with the fresh function scope installed and returns the
// final return expression ("" for none); it must therefore build that
// expression itself, in scope. The function's accumulated work weight
// is returned so callers can record it on the helper entry.
func (p *progGen) emitFunc(name string, params []string, body func() string) float64 {
	p.fn = fnState{vars: append([]string(nil), params...), mult: 1}
	outer := p.b
	side := &bytes.Buffer{}
	p.b = side
	p.ind++
	if ret := body(); ret != "" {
		p.line("return %s;", ret)
	}
	p.ind--
	p.b = outer

	sig := ""
	for i, a := range params {
		if i > 0 {
			sig += ", "
		}
		sig += "int " + a
	}
	if sig == "" {
		sig = "void"
	}
	p.line("int %s(%s) {", name, sig)
	p.ind++
	// Declarations first (C89 style): locals, pointers, loop counters.
	for _, v := range p.fn.vars[len(params):] {
		p.line("int %s;", v)
	}
	for _, v := range p.fn.ptrs {
		p.line("int *%s;", v)
	}
	for _, v := range p.fn.counters {
		p.line("int %s;", v)
	}
	p.ind--
	p.b.Write(side.Bytes())
	p.line("}")
	p.b.WriteByte('\n')
	return p.fn.weight + 1
}

// newLocal declares (and initializes) a fresh int local.
func (p *progGen) newLocal() string {
	v := fmt.Sprintf("v%d", p.fn.varID)
	p.fn.varID++
	p.fn.vars = append(p.fn.vars, v)
	p.line("%s = %d;", v, p.rnd(30)-8)
	return v
}

// newPtr declares a fresh pointer local and points it somewhere safe.
func (p *progGen) newPtr() string {
	v := fmt.Sprintf("p%d", len(p.fn.ptrs))
	p.fn.ptrs = append(p.fn.ptrs, v)
	p.assignPtr(v)
	return v
}

func (p *progGen) assignPtr(v string) {
	switch p.rnd(3) {
	case 0:
		p.line("%s = 0;", v)
	case 1:
		p.line("%s = &%s;", v, p.pick(p.globals))
	default:
		if w := p.writable(); len(w) > 0 {
			p.line("%s = &%s;", v, p.pick(w))
		} else {
			p.line("%s = &%s;", v, p.pick(p.globals))
		}
	}
}

func (p *progGen) emitHelper(name string) {
	nParams := 1 + p.rnd(3)
	params := make([]string, nParams)
	for i := range params {
		params[i] = fmt.Sprintf("a%d", i)
	}
	w := p.emitFunc(name, params, func() string {
		nLoc := 1 + p.rnd(2)
		for i := 0; i < nLoc; i++ {
			p.newLocal()
		}
		if p.chance(0.4) {
			p.newPtr()
		}
		p.stmts(0, 1+p.rnd(maxStmts))
		return p.expr(2)
	})
	p.funcs = append(p.funcs, helper{name: name, params: nParams, weight: w})
}

func (p *progGen) emitRecursive(name string) {
	self := helper{name: name, params: 2, recursive: true}
	w := p.emitFunc(name, []string{"n0", "a0"}, func() string {
		p.fn.rec = &self
		p.fn.recN = "n0"
		p.line("if (n0 <= 0) {")
		p.ind++
		p.line("return a0 + %d;", p.rnd(5))
		p.ind--
		p.line("}")
		p.newLocal()
		p.stmts(1, 1+p.rnd(3))
		return fmt.Sprintf("%s(n0 - 1, a0 + %s)", name, p.pick(p.fn.vars))
	})
	// One invocation can recurse RecDepth deep; weight is per-call.
	self.weight = w * float64(recDepth+1)
	p.funcs = append(p.funcs, self)
}

func (p *progGen) emitMain() {
	p.emitFunc("main", nil, func() string {
		p.fn.vars = append(p.fn.vars, "acc")
		p.line("acc = 0;")
		nLoc := 1 + p.rnd(3)
		for i := 0; i < nLoc; i++ {
			p.newLocal()
		}
		if p.chance(0.6) {
			p.newPtr()
		}
		if p.chance(0.3) {
			p.newPtr()
		}
		p.stmts(0, 2+p.rnd(maxStmts))
		p.line(PadMarker)
		p.line(`printf("%%d %%d\n", acc, %s);`, p.pick(p.globals))
		return "acc & 7"
	})
	// main is not callable, so it is not appended to p.funcs.
}

// --- statements -------------------------------------------------------------

func (p *progGen) stmts(depth, n int) {
	for i := 0; i < n; i++ {
		p.stmt(depth)
	}
}

// lvalue picks an assignable location: a local, a global, or an array
// slot (never a loop counter).
func (p *progGen) lvalue() string {
	switch p.rnd(4) {
	case 0:
		return p.pick(p.globals)
	case 1:
		return fmt.Sprintf("%s[(%s) & %d]", p.pick(p.arrays), p.expr(1), arraySize-1)
	default:
		if w := p.writable(); len(w) > 0 {
			return p.pick(w)
		}
		return p.pick(p.globals)
	}
}

func (p *progGen) stmt(depth int) {
	p.fn.weight += p.fn.mult
	deep := depth < maxDepth && p.fn.mult <= loopMult
	for {
		switch p.rnd(16) {
		case 0, 1, 2, 3:
			p.assignStmt()
		case 4, 5, 6:
			p.ifStmt(depth)
		case 7:
			if !deep {
				continue
			}
			p.forStmt(depth)
		case 8:
			if !deep {
				continue
			}
			p.whileStmt(depth)
		case 9:
			if !deep || !p.chance(0.6) {
				continue
			}
			p.doWhileStmt(depth)
		case 10:
			if !deep || !p.chance(0.7) {
				continue
			}
			p.switchStmt(depth)
		case 11, 12:
			if !p.callStmt() {
				continue
			}
		case 13:
			// break/continue, where legal.
			if !p.jumpStmt() {
				continue
			}
		case 14:
			// Dead branch: the const heuristic must fold it.
			if !p.chance(0.25) {
				continue
			}
			p.line("if (0) {")
			p.ind++
			p.assignStmt()
			p.ind--
			p.line("}")
		case 15:
			// Guarded pointer write: safe deref, pointer heuristic shape.
			if len(p.fn.ptrs) == 0 {
				continue
			}
			v := p.pick(p.fn.ptrs)
			p.line("if (%s != 0) {", v)
			p.ind++
			p.line("*%s = %s;", v, p.expr(1))
			p.ind--
			p.line("}")
			if p.chance(0.3) {
				p.assignPtr(v)
			}
		}
		return
	}
}

func (p *progGen) assignStmt() {
	lhs := p.lvalue()
	ops := []string{"=", "=", "=", "+=", "-=", "*=", "&=", "|=", "^="}
	op := ops[p.rnd(len(ops))]
	p.line("%s %s %s;", lhs, op, p.expr(maxExpr))
}

// callStmt emits a whole-statement call (the shapes the inliner can
// splice): `v = f(...)` or `f(...)`.
func (p *progGen) callStmt() bool {
	if len(p.funcs) == 0 {
		return false
	}
	call := p.callExpr()
	if call == "" {
		return false
	}
	if p.chance(0.7) {
		p.line("%s = %s;", p.lvalue(), call)
	} else {
		p.line("%s;", call)
	}
	return true
}

// callExpr renders a call to a previously defined helper ("" when none
// is callable here). Recursive helpers get a bounded depth constant —
// or recN-1 when already inside that helper.
func (p *progGen) callExpr() string {
	if len(p.funcs) == 0 {
		return ""
	}
	h := p.funcs[p.rnd(len(p.funcs))]
	if h.noReturn {
		// Unconditional die() calls would make most of the program
		// dead; keep them behind branches (see ifStmt).
		return ""
	}
	if p.fn.mult*h.weight > callWork {
		return "" // too much work inside these loops
	}
	p.fn.weight += p.fn.mult * h.weight
	args := ""
	for i := 0; i < h.params; i++ {
		if i > 0 {
			args += ", "
		}
		if i == 0 && h.recursive {
			if p.fn.rec != nil && p.fn.rec.name == h.name {
				args += p.fn.recN + " - 1"
			} else {
				args += fmt.Sprintf("%d", 1+p.rnd(recDepth))
			}
			continue
		}
		args += p.expr(1)
	}
	return fmt.Sprintf("%s(%s)", h.name, args)
}

func (p *progGen) dieCall() string {
	for _, h := range p.funcs {
		if h.noReturn {
			return fmt.Sprintf("%s(%s)", h.name, p.expr(1))
		}
	}
	return ""
}

func (p *progGen) ifStmt(depth int) {
	cond := p.cond()
	switch p.rnd(5) {
	case 0:
		// Early return (return heuristic).
		p.line("if (%s) {", cond)
		p.ind++
		p.line("return %s;", p.expr(1))
		p.ind--
		p.line("}")
	case 1:
		// Error arm (call heuristic), when a wrapper exists.
		die := p.dieCall()
		if die == "" {
			p.plainIf(cond, depth)
			return
		}
		p.line("if (%s) {", cond)
		p.ind++
		p.line("%s;", die)
		p.ind--
		p.line("}")
	default:
		p.plainIf(cond, depth)
	}
}

func (p *progGen) plainIf(cond string, depth int) {
	p.line("if (%s) {", cond)
	p.ind++
	p.stmts(depth+1, 1+p.rnd(2))
	p.ind--
	if p.chance(0.45) {
		p.line("} else {")
		p.ind++
		p.stmts(depth+1, 1+p.rnd(2))
		p.ind--
	}
	p.line("}")
}

func (p *progGen) newCounter() string {
	c := fmt.Sprintf("i%d", p.fn.loopID)
	p.fn.loopID++
	p.fn.counters = append(p.fn.counters, c)
	return c
}

func (p *progGen) loopBody(depth, bound int, kind byte, pre func()) {
	p.fn.ctrl = append(p.fn.ctrl, kind)
	saved := p.fn.mult
	p.fn.mult *= float64(bound)
	p.ind++
	p.stmts(depth+1, 1+p.rnd(3))
	if pre != nil {
		pre()
	}
	p.ind--
	p.fn.mult = saved
	p.fn.ctrl = p.fn.ctrl[:len(p.fn.ctrl)-1]
}

func (p *progGen) forStmt(depth int) {
	c := p.newCounter()
	bound := 2 + p.rnd(maxLoop-1)
	p.line("for (%s = 0; %s < %d; %s++) {", c, c, bound, c)
	p.loopBody(depth, bound, 'f', nil)
	p.line("}")
}

func (p *progGen) whileStmt(depth int) {
	c := p.newCounter()
	bound := 2 + p.rnd(maxLoop-1)
	cond := fmt.Sprintf("%s < %d", c, bound)
	if p.chance(0.3) {
		// Conjoin an extra test: the counter still bounds iterations.
		cond = fmt.Sprintf("%s && %s", cond, p.cmp())
	}
	p.line("%s = 0;", c)
	p.line("while (%s) {", cond)
	p.loopBody(depth, bound, 'w', func() {
		p.line("%s = %s + 1;", c, c)
	})
	p.line("}")
}

func (p *progGen) doWhileStmt(depth int) {
	c := p.newCounter()
	bound := 2 + p.rnd(maxLoop-1)
	p.line("%s = 0;", c)
	p.line("do {")
	p.loopBody(depth, bound, 'd', func() {
		p.line("%s = %s + 1;", c, c)
	})
	p.line("} while (%s < %d);", c, bound)
}

func (p *progGen) switchStmt(depth int) {
	mask := []int{1, 3, 7}[p.rnd(3)]
	tag := fmt.Sprintf("(%s) & %d", p.expr(2), mask)
	p.line("switch (%s) {", tag)
	p.fn.ctrl = append(p.fn.ctrl, 's')
	arms := 1 + p.rnd(mask+1)
	used := p.rng.Perm(mask + 1)[:arms]
	for i, v := range used {
		p.line("case %d:", v)
		// Occasional label-only fallthrough onto the next arm.
		if i+1 < arms && p.chance(0.25) {
			continue
		}
		p.ind++
		p.stmts(depth+1, 1+p.rnd(2))
		if p.chance(0.8) {
			p.line("break;")
		}
		p.ind--
	}
	if p.chance(0.7) {
		p.line("default:")
		p.ind++
		p.stmts(depth+1, 1)
		p.line("break;")
		p.ind--
	}
	p.fn.ctrl = p.fn.ctrl[:len(p.fn.ctrl)-1]
	p.line("}")
}

// jumpStmt emits break (inside any loop or switch) or continue (only
// when the innermost loop is a for, whose post-statement keeps the
// bounding counter advancing).
func (p *progGen) jumpStmt() bool {
	if len(p.fn.ctrl) == 0 {
		return false
	}
	innerLoop := byte(0)
	for i := len(p.fn.ctrl) - 1; i >= 0; i-- {
		if p.fn.ctrl[i] != 's' {
			innerLoop = p.fn.ctrl[i]
			break
		}
	}
	if innerLoop == 'f' && p.chance(0.4) {
		p.line("if (%s) {", p.cmp())
		p.ind++
		p.line("continue;")
		p.ind--
		p.line("}")
		return true
	}
	p.line("if (%s) {", p.cmp())
	p.ind++
	p.line("break;")
	p.ind--
	p.line("}")
	return true
}

// --- expressions ------------------------------------------------------------

// readable picks any readable int: local, param, global, counter, or
// array slot.
func (p *progGen) readable() string {
	switch p.rnd(5) {
	case 0:
		return p.pick(p.globals)
	case 1:
		return fmt.Sprintf("%s[(%s) & %d]", p.pick(p.arrays), p.readableScalar(), arraySize-1)
	case 2:
		if len(p.fn.counters) > 0 {
			return p.pick(p.fn.counters)
		}
		fallthrough
	default:
		return p.readableScalar()
	}
}

func (p *progGen) readableScalar() string {
	if len(p.fn.vars) > 0 {
		return p.pick(p.fn.vars)
	}
	return p.pick(p.globals)
}

// cmp renders a simple integer comparison.
func (p *progGen) cmp() string {
	ops := []string{"<", ">", "<=", ">=", "==", "!="}
	l := p.readable()
	r := fmt.Sprintf("%d", p.rnd(20)-4)
	if p.chance(0.3) {
		r = p.readable()
	}
	return fmt.Sprintf("%s %s %s", l, ops[p.rnd(len(ops))], r)
}

// cond renders a branch condition, cycling through the shapes the smart
// predictor's heuristics recognize.
func (p *progGen) cond() string {
	switch p.rnd(8) {
	case 0, 1:
		return p.cmp()
	case 2:
		op := "&&"
		if p.chance(0.5) {
			op = "||"
		}
		return fmt.Sprintf("%s %s %s", p.cmp(), op, p.cmp())
	case 3:
		if len(p.fn.ptrs) > 0 {
			ptr := p.pick(p.fn.ptrs)
			switch p.rnd(4) {
			case 0:
				return fmt.Sprintf("%s == 0", ptr)
			case 1:
				return fmt.Sprintf("%s != 0", ptr)
			case 2:
				if len(p.fn.ptrs) > 1 {
					other := p.pick(p.fn.ptrs)
					return fmt.Sprintf("%s == %s", ptr, other)
				}
				return ptr
			default:
				return ptr
			}
		}
		return p.cmp()
	case 4:
		if call := p.callExpr(); call != "" {
			return fmt.Sprintf("%s %s %d", call, []string{">", "!=", "<="}[p.rnd(3)], p.rnd(6))
		}
		return p.cmp()
	case 5:
		return fmt.Sprintf("!(%s)", p.cmp())
	case 6:
		// Bare integer truthiness.
		return p.readable()
	default:
		return fmt.Sprintf("(%s) %s (%s)", p.cmp(), []string{"&&", "||"}[p.rnd(2)], p.readable())
	}
}

// expr renders an integer expression of bounded depth. Division and
// modulo only ever use positive constant divisors, and shifts use
// constant counts, so no generated expression can fault.
func (p *progGen) expr(depth int) string {
	if depth <= 0 || p.chance(0.3) {
		if p.chance(0.4) {
			return fmt.Sprintf("%d", p.rnd(40)-10)
		}
		return p.readable()
	}
	switch p.rnd(10) {
	case 0, 1, 2:
		ops := []string{"+", "-", "*", "&", "|", "^"}
		return fmt.Sprintf("(%s %s %s)", p.expr(depth-1), ops[p.rnd(len(ops))], p.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / %d)", p.expr(depth-1), 1+p.rnd(8))
	case 4:
		return fmt.Sprintf("(%s %% %d)", p.expr(depth-1), 2+p.rnd(7))
	case 5:
		op := "<<"
		if p.chance(0.5) {
			op = ">>"
		}
		return fmt.Sprintf("(%s %s %d)", p.expr(depth-1), op, p.rnd(5))
	case 6:
		return fmt.Sprintf("(%s ? %s : %s)", p.cmp(), p.expr(depth-1), p.expr(depth-1))
	case 7:
		if call := p.callExpr(); call != "" {
			return call
		}
		return p.readable()
	case 8:
		op := []string{"-", "~", "!"}[p.rnd(3)]
		return fmt.Sprintf("%s(%s)", op, p.expr(depth-1))
	default:
		return fmt.Sprintf("(%s)", p.cmp())
	}
}
