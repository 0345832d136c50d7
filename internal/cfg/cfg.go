// Package cfg builds per-function control-flow graphs from the analyzed
// AST. Blocks carry straight-line statements; terminators carry the
// branching structure (conditional jumps, switch dispatch, returns).
// The same graphs drive the interpreter/profiler, the Markov
// intra-procedural estimator, and the CFG dump tooling.
package cfg

import (
	"fmt"
	"strings"
	"sync"

	"staticest/internal/cast"
	"staticest/internal/sem"
)

// TermKind identifies a block terminator.
type TermKind int

// Terminator kinds.
const (
	TermJump   TermKind = iota // unconditional edge to Succs[0]
	TermCond                   // two-way branch: Succs[0] = true, Succs[1] = false
	TermSwitch                 // N-way: Succs[i] matches Cases[i]; last is default
	TermReturn                 // function exit
)

// BranchOrigin records which statement kind a conditional terminator came
// from; the estimators treat loop back-edges differently from if-branches.
type BranchOrigin int

// Branch origins.
const (
	FromIf BranchOrigin = iota
	FromWhile
	FromDoWhile
	FromFor
)

func (o BranchOrigin) String() string {
	switch o {
	case FromIf:
		return "if"
	case FromWhile:
		return "while"
	case FromDoWhile:
		return "do-while"
	case FromFor:
		return "for"
	}
	return "?"
}

// SwitchDispatch describes one switch arm of a TermSwitch terminator.
type SwitchDispatch struct {
	Vals      []int64
	IsDefault bool
}

// Block is a basic block.
type Block struct {
	ID    int
	Name  string // diagnostic label: "entry", "while.cond", ...
	Stmts []cast.Stmt

	Term   TermKind
	Succs  []*Block
	Preds  []*Block
	Cond   cast.Expr    // TermCond: the branch condition
	Origin BranchOrigin // TermCond: source construct
	// BranchSite is the sem-assigned branch-site ID for TermCond blocks
	// created from an if/while/do/for condition, else -1.
	BranchSite int
	// SwitchSite is the sem-assigned switch-site ID for TermSwitch, else -1.
	SwitchSite int
	Tag        cast.Expr // TermSwitch: the tag expression
	Cases      []SwitchDispatch
	RetVal     cast.Expr // TermReturn: value or nil

	// Anchor is the AST statement whose AST-walk frequency stands in for
	// this block when mapping AST-based estimates onto the CFG.
	Anchor cast.Stmt
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *cast.FuncDecl
	Blocks []*Block
	Entry  *Block
	// Exit is a synthetic sink that all TermReturn blocks conceptually
	// reach (not included in Blocks or frequencies).
}

// Program holds the CFGs of every function in an analyzed program.
type Program struct {
	Sem    *sem.Program
	Graphs []*Graph // parallel to Sem.Funcs
	ByFunc map[*cast.FuncDecl]*Graph

	// LoweredMu guards Lowered, the interpreter's lazily compiled
	// bytecode lowerings of this program. The cache is stored untyped
	// because cfg cannot import the bytecode package (internal/bc
	// compiles FROM cfg graphs); internal/interp owns the concrete type.
	LoweredMu sync.Mutex
	Lowered   any
}

// MaxNodes bounds both Markov systems the estimators solve, each a
// dense n×n matrix: the blocks of one function (core.IntraMarkov) and
// the functions of one unit (core.EstimateInterMarkov). Build rejects a
// program over it, so a solve's matrix and its copy take at most
// 2 × 32 MiB instead of growing as n² with the source.
const MaxNodes = 2048

// Build constructs control-flow graphs for every function. A unit of
// more than MaxNodes functions, or a function of more than MaxNodes
// blocks, is an error.
func Build(sp *sem.Program) (*Program, error) {
	if n := len(sp.Funcs); n > MaxNodes {
		return nil, fmt.Errorf("%d functions exceed the %d-function limit", n, MaxNodes)
	}
	p := &Program{Sem: sp, ByFunc: make(map[*cast.FuncDecl]*Graph)}
	for _, fd := range sp.Funcs {
		g, err := buildFunc(fd)
		if err != nil {
			return nil, err
		}
		if n := len(g.Blocks); n > MaxNodes {
			return nil, fmt.Errorf("%s: %d basic blocks exceed the %d-block limit", fd.Name(), n, MaxNodes)
		}
		p.Graphs = append(p.Graphs, g)
		p.ByFunc[fd] = g
	}
	return p, nil
}

type builder struct {
	g      *Graph
	cur    *Block
	breaks []*Block // current break target stack
	conts  []*Block // current continue target stack
	labels map[string]*Block
	gotos  []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
}

func buildFunc(fd *cast.FuncDecl) (*Graph, error) {
	b := &builder{
		g:      &Graph{Fn: fd},
		labels: make(map[string]*Block),
	}
	entry := b.newBlock("entry")
	entry.Anchor = fd.Body
	b.g.Entry = entry
	b.cur = entry
	if err := b.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end of the function body.
	if b.cur != nil {
		b.cur.Term = TermReturn
	}
	// Resolve gotos.
	for _, pg := range b.gotos {
		target, ok := b.labels[pg.label]
		if !ok {
			return nil, fmt.Errorf("%s: goto to unknown label %q", fd.Name(), pg.label)
		}
		pg.from.Term = TermJump
		link(pg.from, target)
	}
	b.prune()
	return b.g, nil
}

func (b *builder) newBlock(name string) *Block {
	blk := &Block{
		ID: len(b.g.Blocks), Name: name,
		BranchSite: -1, SwitchSite: -1,
	}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes blk the current insertion point, linking from the
// previous current block when control can fall through.
func (b *builder) jumpTo(blk *Block) {
	if b.cur != nil {
		b.cur.Term = TermJump
		link(b.cur, blk)
	}
	b.cur = blk
}

func (b *builder) add(s cast.Stmt) {
	if b.cur == nil {
		// Unreachable code still needs a home so profiling sees zero
		// counts for it; start a fresh (predecessor-less) block.
		b.cur = b.newBlock("dead")
		b.cur.Anchor = s
	}
	if b.cur.Anchor == nil {
		b.cur.Anchor = s
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *builder) stmt(s cast.Stmt) error {
	switch x := s.(type) {
	case nil, *cast.Empty:
		return nil
	case *cast.Block:
		for _, st := range x.Stmts {
			if err := b.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *cast.ExprStmt, *cast.DeclStmt:
		b.add(s)
		return nil
	case *cast.If:
		return b.ifStmt(x)
	case *cast.While:
		return b.whileStmt(x)
	case *cast.DoWhile:
		return b.doWhileStmt(x)
	case *cast.For:
		return b.forStmt(x)
	case *cast.Switch:
		return b.switchStmt(x)
	case *cast.Break:
		if len(b.breaks) == 0 {
			return fmt.Errorf("%s: break outside loop or switch", x.P)
		}
		if b.cur != nil {
			b.cur.Term = TermJump
			link(b.cur, b.breaks[len(b.breaks)-1])
			b.cur = nil
		}
		return nil
	case *cast.Continue:
		if len(b.conts) == 0 {
			return fmt.Errorf("%s: continue outside loop", x.P)
		}
		if b.cur != nil {
			b.cur.Term = TermJump
			link(b.cur, b.conts[len(b.conts)-1])
			b.cur = nil
		}
		return nil
	case *cast.Return:
		if b.cur == nil {
			b.cur = b.newBlock("dead")
			b.cur.Anchor = s
		}
		if b.cur.Anchor == nil {
			b.cur.Anchor = s
		}
		b.cur.Term = TermReturn
		b.cur.RetVal = x.X
		b.cur = nil
		return nil
	case *cast.Goto:
		if b.cur == nil {
			b.cur = b.newBlock("dead")
			b.cur.Anchor = s
		}
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: x.Label})
		b.cur = nil
		return nil
	case *cast.Labeled:
		blk, ok := b.labels[x.Label]
		if !ok {
			blk = b.newBlock("label." + x.Label)
			b.labels[x.Label] = blk
		}
		blk.Anchor = x
		b.jumpTo(blk)
		return b.stmt(x.Stmt)
	}
	return fmt.Errorf("cfg: unhandled statement %T", s)
}

func (b *builder) ifStmt(x *cast.If) error {
	condBlk := b.cur
	if condBlk == nil {
		condBlk = b.newBlock("if.cond")
		b.cur = condBlk
	}
	if condBlk.Anchor == nil {
		condBlk.Anchor = x
	}
	condBlk.Term = TermCond
	condBlk.Cond = x.Cond
	condBlk.Origin = FromIf
	condBlk.BranchSite = x.BranchID()

	thenBlk := b.newBlock("if.then")
	thenBlk.Anchor = x.Then
	link(condBlk, thenBlk) // true edge first
	var elseBlk *Block
	if x.Else != nil {
		elseBlk = b.newBlock("if.else")
		elseBlk.Anchor = x.Else
		link(condBlk, elseBlk)
	}
	join := b.newBlock("if.end")

	b.cur = thenBlk
	if err := b.stmt(x.Then); err != nil {
		return err
	}
	if b.cur != nil {
		b.cur.Term = TermJump
		link(b.cur, join)
	}
	if x.Else != nil {
		b.cur = elseBlk
		if err := b.stmt(x.Else); err != nil {
			return err
		}
		if b.cur != nil {
			b.cur.Term = TermJump
			link(b.cur, join)
		}
	} else {
		link(condBlk, join) // false edge falls through
	}
	b.cur = join
	return nil
}

func (b *builder) whileStmt(x *cast.While) error {
	condBlk := b.newBlock("while.cond")
	condBlk.Anchor = x
	b.jumpTo(condBlk)
	condBlk.Term = TermCond
	condBlk.Cond = x.Cond
	condBlk.Origin = FromWhile
	condBlk.BranchSite = x.BranchID()

	bodyBlk := b.newBlock("while.body")
	bodyBlk.Anchor = x.Body
	exitBlk := b.newBlock("while.end")
	link(condBlk, bodyBlk) // true
	link(condBlk, exitBlk) // false

	b.breaks = append(b.breaks, exitBlk)
	b.conts = append(b.conts, condBlk)
	b.cur = bodyBlk
	err := b.stmt(x.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	if err != nil {
		return err
	}
	if b.cur != nil {
		b.cur.Term = TermJump
		link(b.cur, condBlk)
	}
	b.cur = exitBlk
	return nil
}

func (b *builder) doWhileStmt(x *cast.DoWhile) error {
	bodyBlk := b.newBlock("do.body")
	bodyBlk.Anchor = x.Body
	b.jumpTo(bodyBlk)
	condBlk := b.newBlock("do.cond")
	condBlk.Anchor = x
	exitBlk := b.newBlock("do.end")

	b.breaks = append(b.breaks, exitBlk)
	b.conts = append(b.conts, condBlk)
	err := b.stmt(x.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	if err != nil {
		return err
	}
	if b.cur != nil {
		b.cur.Term = TermJump
		link(b.cur, condBlk)
	}
	condBlk.Term = TermCond
	condBlk.Cond = x.Cond
	condBlk.Origin = FromDoWhile
	condBlk.BranchSite = x.BranchID()
	link(condBlk, bodyBlk) // true: loop again
	link(condBlk, exitBlk) // false
	b.cur = exitBlk
	return nil
}

func (b *builder) forStmt(x *cast.For) error {
	if x.InitS != nil {
		b.add(x.InitS)
	}
	condBlk := b.newBlock("for.cond")
	condBlk.Anchor = x
	b.jumpTo(condBlk)

	bodyBlk := b.newBlock("for.body")
	bodyBlk.Anchor = x.Body
	exitBlk := b.newBlock("for.end")
	var postBlk *Block
	if x.PostS != nil {
		postBlk = b.newBlock("for.post")
		postBlk.Anchor = x.PostS
		postBlk.Stmts = append(postBlk.Stmts, x.PostS)
		postBlk.Term = TermJump
		link(postBlk, condBlk)
	}

	if x.Cond != nil {
		condBlk.Term = TermCond
		condBlk.Cond = x.Cond
		condBlk.Origin = FromFor
		condBlk.BranchSite = x.BranchID()
		link(condBlk, bodyBlk)
		link(condBlk, exitBlk)
	} else {
		condBlk.Term = TermJump
		link(condBlk, bodyBlk)
	}

	contTarget := condBlk
	if postBlk != nil {
		contTarget = postBlk
	}
	b.breaks = append(b.breaks, exitBlk)
	b.conts = append(b.conts, contTarget)
	b.cur = bodyBlk
	err := b.stmt(x.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	if err != nil {
		return err
	}
	if b.cur != nil {
		b.cur.Term = TermJump
		link(b.cur, contTarget)
	}
	b.cur = exitBlk
	return nil
}

func (b *builder) switchStmt(x *cast.Switch) error {
	swBlk := b.cur
	if swBlk == nil {
		swBlk = b.newBlock("switch")
		b.cur = swBlk
	}
	if swBlk.Anchor == nil {
		swBlk.Anchor = x
	}
	swBlk.Term = TermSwitch
	swBlk.Tag = x.Tag
	swBlk.SwitchSite = x.Branch

	exitBlk := b.newBlock("switch.end")
	armBlks := make([]*Block, len(x.Cases))
	hasDefault := false
	for i, cs := range x.Cases {
		name := "case"
		if cs.IsDefault {
			name = "default"
			hasDefault = true
		}
		armBlks[i] = b.newBlock(name)
		if len(cs.Stmts) > 0 {
			armBlks[i].Anchor = cs.Stmts[0]
		} else {
			armBlks[i].Anchor = x
		}
		link(swBlk, armBlks[i])
		swBlk.Cases = append(swBlk.Cases, SwitchDispatch{Vals: cs.Vals, IsDefault: cs.IsDefault})
	}
	if !hasDefault {
		// Implicit default: fall past the switch.
		link(swBlk, exitBlk)
		swBlk.Cases = append(swBlk.Cases, SwitchDispatch{IsDefault: true})
	}

	b.breaks = append(b.breaks, exitBlk)
	for i, cs := range x.Cases {
		b.cur = armBlks[i]
		for _, st := range cs.Stmts {
			if err := b.stmt(st); err != nil {
				b.breaks = b.breaks[:len(b.breaks)-1]
				return err
			}
		}
		// Fall through to the next arm, or to the exit after the last.
		if b.cur != nil {
			b.cur.Term = TermJump
			if i+1 < len(armBlks) {
				link(b.cur, armBlks[i+1])
			} else {
				link(b.cur, exitBlk)
			}
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exitBlk
	return nil
}

// prune removes empty TermJump blocks with a single successor by
// splicing their predecessors directly to the successor, then compacts
// IDs. The entry block is never removed.
func (b *builder) prune() {
	g := b.g
	// An empty entry block that only jumps forward merges into its
	// successor (so simple functions start at their first real block, as
	// the paper's CFGs do).
	for g.Entry.Term == TermJump && len(g.Entry.Stmts) == 0 &&
		len(g.Entry.Succs) == 1 && g.Entry.Succs[0] != g.Entry &&
		len(g.Entry.Preds) == 0 {
		old := g.Entry
		succ := old.Succs[0]
		succ.Preds = removeBlock(succ.Preds, old)
		old.Succs = nil
		old.markRemoved()
		g.Entry = succ
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range g.Blocks {
			if blk == g.Entry || blk.removed() {
				continue
			}
			if blk.Term == TermJump && len(blk.Stmts) == 0 && len(blk.Succs) == 1 {
				succ := blk.Succs[0]
				if succ == blk {
					continue // self-loop: infinite empty loop, keep
				}
				// Redirect predecessors.
				for _, p := range blk.Preds {
					for i, s := range p.Succs {
						if s == blk {
							p.Succs[i] = succ
						}
					}
					succ.Preds = append(succ.Preds, p)
				}
				succ.Preds = removeBlock(succ.Preds, blk)
				blk.Preds = nil
				blk.Succs = nil
				blk.markRemoved()
				changed = true
			}
		}
	}
	// Drop unreachable blocks (no preds, not entry) that are also empty.
	var kept []*Block
	for _, blk := range g.Blocks {
		if blk.removed() {
			continue
		}
		kept = append(kept, blk)
	}
	// Remove dangling pred entries for dropped unreachable blocks.
	for i, blk := range kept {
		blk.ID = i
	}
	g.Blocks = kept
}

func (blk *Block) removed() bool { return blk.ID == -1 }
func (blk *Block) markRemoved()  { blk.ID = -1 }

func removeBlock(list []*Block, b *Block) []*Block {
	out := list[:0]
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// Cycles prices a run's block counts (indexed by function, then block
// ID) under the interpreter's cost model: each execution of a block
// costs 1 + len(Stmts), times its function's factor, which is 1 where
// factor has no entry. A full run, the probe reconstructor and the
// selective-optimization experiment all price counts here.
func Cycles(p *Program, counts [][]float64, factor map[int]float64) float64 {
	var cycles float64
	for fi, g := range p.Graphs {
		f := 1.0
		if v, ok := factor[fi]; ok {
			f = v
		}
		for _, blk := range g.Blocks {
			cycles += counts[fi][blk.ID] * float64(1+len(blk.Stmts)) * f
		}
	}
	return cycles
}

// ProfileShape returns the dimensions of a dynamic profile for the
// program: blocks per function, call-site and branch-site counts, and
// the arm count of every switch site (source cases plus the implicit
// default arm the CFG synthesizes when the source has none). The
// interpreter and the probe reconstructor both allocate profiles from
// this one description, so their shapes cannot drift apart.
func ProfileShape(p *Program) (blocksPerFunc []int, numSites, numBranches int, switchArms []int) {
	sp := p.Sem
	blocksPerFunc = make([]int, len(sp.Funcs))
	for i, g := range p.Graphs {
		blocksPerFunc[i] = len(g.Blocks)
	}
	switchArms = make([]int, len(sp.SwitchSites))
	for _, ss := range sp.SwitchSites {
		n := len(ss.Stmt.Cases)
		hasDefault := false
		for _, c := range ss.Stmt.Cases {
			if c.IsDefault {
				hasDefault = true
			}
		}
		if !hasDefault {
			n++
		}
		switchArms[ss.ID] = n
	}
	return blocksPerFunc, len(sp.CallSites), len(sp.BranchSites), switchArms
}

// String renders the graph for diagnostics.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s:\n", g.Fn.Name())
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "  b%d (%s):", blk.ID, blk.Name)
		if blk == g.Entry {
			sb.WriteString(" [entry]")
		}
		sb.WriteString("\n")
		for _, s := range blk.Stmts {
			fmt.Fprintf(&sb, "    %s\n", cast.StmtLabel(s))
		}
		switch blk.Term {
		case TermJump:
			if len(blk.Succs) > 0 {
				fmt.Fprintf(&sb, "    -> b%d\n", blk.Succs[0].ID)
			}
		case TermCond:
			fmt.Fprintf(&sb, "    %s (%s) ? b%d : b%d\n",
				blk.Origin, cast.ExprString(blk.Cond), blk.Succs[0].ID, blk.Succs[1].ID)
		case TermSwitch:
			fmt.Fprintf(&sb, "    switch (%s):", cast.ExprString(blk.Tag))
			for i, c := range blk.Cases {
				if c.IsDefault {
					fmt.Fprintf(&sb, " default->b%d", blk.Succs[i].ID)
				} else {
					fmt.Fprintf(&sb, " %v->b%d", c.Vals, blk.Succs[i].ID)
				}
			}
			sb.WriteString("\n")
		case TermReturn:
			if blk.RetVal != nil {
				fmt.Fprintf(&sb, "    return %s\n", cast.ExprString(blk.RetVal))
			} else {
				fmt.Fprintf(&sb, "    return\n")
			}
		}
	}
	return sb.String()
}
