package opt

import (
	"fmt"
	"sort"

	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/obs"
	"staticest/internal/sem"
)

// DefaultBudget is the default inlining size budget, in cloned callee
// blocks per program.
const DefaultBudget = 64

// SiteInfo describes one call site the CFG-level inliner can transform.
type SiteInfo struct {
	Site   int // sem call-site ID
	Caller int // function indices
	Callee int
	Cost   int // callee body size in basic blocks
}

// Decision is one ranked inlining choice.
type Decision struct {
	SiteInfo
	Freq float64 // the driving source's frequency for the site
}

// InlinePlan is a ranked, budgeted set of inlining decisions under one
// frequency source.
type InlinePlan struct {
	Source   string
	Budget   int
	Eligible []SiteInfo
	Chosen   []Decision // greedy order: hottest first
	CostUsed int        // blocks of budget consumed
}

// callStmt matches the two statement shapes the inliner accepts: a call
// evaluated for effect (`f(a, b);`) and a call assigned to a plain
// variable (`x = f(a, b);`). Anything else — calls in conditions,
// returns, initializers, or argument positions — is ineligible. For the
// assign form it returns the destination identifier.
func callStmt(s cast.Stmt) (*cast.Call, *cast.Ident) {
	es, ok := s.(*cast.ExprStmt)
	if !ok {
		return nil, nil
	}
	switch x := es.X.(type) {
	case *cast.Call:
		return x, nil
	case *cast.Assign:
		if x.Op != cast.Plain {
			return nil, nil
		}
		id, ok := x.L.(*cast.Ident)
		if !ok || id.Obj == nil ||
			(id.Obj.Kind != cast.ObjVar && id.Obj.Kind != cast.ObjParam) {
			return nil, nil
		}
		if c, ok := x.R.(*cast.Call); ok {
			return c, id
		}
	}
	return nil, nil
}

// EligibleSites returns every call site the inliner can splice: a direct
// call to a defined, non-recursive function, different from the caller,
// appearing as a whole statement. Results are in site-ID order.
func EligibleSites(cp *cfg.Program, cg *callgraph.Graph) []SiteInfo {
	recursive := cg.InRecursiveSCC()
	var out []SiteInfo
	for fi, g := range cp.Graphs {
		for _, blk := range g.Blocks {
			for _, s := range blk.Stmts {
				call, _ := callStmt(s)
				if call == nil || call.SiteID < 0 {
					continue
				}
				callee := call.Callee()
				if callee == nil || callee.Builtin || callee.FuncIndex < 0 {
					continue
				}
				ci := callee.FuncIndex
				if ci == fi || recursive[ci] {
					continue
				}
				out = append(out, SiteInfo{
					Site:   call.SiteID,
					Caller: fi,
					Callee: ci,
					Cost:   len(cp.Graphs[ci].Blocks),
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Site < out[b].Site })
	return out
}

// PlanInline ranks the eligible sites by the source's call-site
// frequency and greedily selects them under a size budget (total cloned
// callee blocks). Zero-frequency sites are never chosen: inlining them
// spends budget on code the source believes never runs.
func PlanInline(cp *cfg.Program, cg *callgraph.Graph, src *Source, budget int) *InlinePlan {
	if budget <= 0 {
		budget = DefaultBudget
	}
	plan := &InlinePlan{Source: src.Name, Budget: budget, Eligible: EligibleSites(cp, cg)}
	ranked := append([]SiteInfo(nil), plan.Eligible...)
	sort.SliceStable(ranked, func(a, b int) bool {
		fa, fb := src.Site[ranked[a].Site], src.Site[ranked[b].Site]
		if fa != fb {
			return fa > fb
		}
		return ranked[a].Site < ranked[b].Site
	})
	for _, si := range ranked {
		f := src.Site[si.Site]
		if f <= 0 {
			break // ranked descending: everything after is cold too
		}
		if plan.CostUsed+si.Cost > budget {
			continue // try smaller callees further down the ranking
		}
		plan.CostUsed += si.Cost
		plan.Chosen = append(plan.Chosen, Decision{SiteInfo: si, Freq: f})
	}
	return plan
}

// Origin identifies the original-unit block a transformed-unit block
// descends from. Synthetic continuation blocks (the lower half of a
// split call block) carry Func == -1 and are excluded when folding a
// profile back onto the original shape.
type Origin struct {
	Func, Block int
}

// Result is a transformed unit: the inlined CFG program (fresh graphs
// and a fresh sem.Program view; the original unit is never mutated),
// plus the origin map that lets measured profiles fold back onto the
// original unit's shape.
type Result struct {
	CFG          *cfg.Program
	Origins      [][]Origin // per function, parallel to CFG.Graphs[i].Blocks
	InlinedSites []int      // site IDs actually spliced, in apply order
	BlocksCloned int
}

// ApplyInline splices every chosen site bottom-up (callees before
// callers, so cloned bodies are always fully inlined already) and
// returns the transformed unit. The input program is left untouched —
// suite units are shared process-wide.
func ApplyInline(cp *cfg.Program, cg *callgraph.Graph, plan *InlinePlan, o *obs.Observer) (*Result, error) {
	sp := o.StartSpan("opt.inline.apply", obs.KV("source", plan.Source))
	defer sp.End()

	in := newInliner(cp)
	byCaller := make(map[int][]Decision)
	for _, d := range plan.Chosen {
		byCaller[d.Caller] = append(byCaller[d.Caller], d)
	}
	res := &Result{}
	for _, comp := range cg.SCCs() { // reverse topological: callees first
		for _, fi := range comp {
			for _, d := range byCaller[fi] {
				if err := in.splice(d); err != nil {
					return nil, err
				}
				res.InlinedSites = append(res.InlinedSites, d.Site)
			}
		}
	}
	res.CFG = in.finish()
	res.Origins = make([][]Origin, len(res.CFG.Graphs))
	for fi, g := range res.CFG.Graphs {
		res.Origins[fi] = make([]Origin, len(g.Blocks))
		for b, blk := range g.Blocks {
			res.Origins[fi][b] = in.originOf[blk]
		}
	}
	res.BlocksCloned = in.blocksCloned
	o.Counter("opt_sites_inlined_total").Add(int64(len(res.InlinedSites)))
	o.Counter("opt_blocks_cloned_total").Add(int64(in.blocksCloned))
	sp.SetAttr("sites", int64(len(res.InlinedSites)))
	return res, nil
}

// inliner carries the working copy of a unit while sites are spliced.
type inliner struct {
	sem    *sem.Program
	graphs []*cfg.Graph

	// originOf maps every working-copy block to the original block it
	// descends from ({-1,-1} for synthetic continuations).
	originOf map[*cfg.Block]Origin

	// frameObjs lists, per function, every object addressed in its frame:
	// params, locals, and the relocated copies added by prior splices.
	// Inlining this function elsewhere must rebase exactly these.
	frameObjs [][]*cast.Object

	blocksCloned int
}

func newInliner(cp *cfg.Program) *inliner {
	orig := cp.Sem
	in := &inliner{
		originOf:  make(map[*cfg.Block]Origin),
		frameObjs: make([][]*cast.Object, len(orig.Funcs)),
	}

	// Shallow-copy the sem program with fresh FuncDecls (FrameSize grows
	// during inlining; the originals are shared process-wide and must not
	// change). Site lists, globals, and strings are shared: the inlined
	// unit keeps every sem-assigned ID, which is what makes its profiles
	// comparable with the original's.
	newSem := *orig
	newSem.Funcs = make([]*cast.FuncDecl, len(orig.Funcs))
	newSem.FuncByName = make(map[string]*cast.FuncDecl, len(orig.Funcs))
	for i, fd := range orig.Funcs {
		nfd := *fd
		newSem.Funcs[i] = &nfd
		newSem.FuncByName[nfd.Name()] = &nfd
		if fd == orig.Main {
			newSem.Main = &nfd
		}
		objs := make([]*cast.Object, 0, len(fd.Params)+len(fd.Locals))
		objs = append(objs, fd.Params...)
		objs = append(objs, fd.Locals...)
		in.frameObjs[i] = objs
	}
	in.sem = &newSem

	// Structurally clone every graph: fresh blocks with copied statement
	// slices (nodes shared until a splice clones them) and remapped edges.
	in.graphs = make([]*cfg.Graph, len(cp.Graphs))
	for fi, g := range cp.Graphs {
		bmap := make(map[*cfg.Block]*cfg.Block, len(g.Blocks))
		ng := &cfg.Graph{Fn: newSem.Funcs[fi], Blocks: make([]*cfg.Block, len(g.Blocks))}
		for b, blk := range g.Blocks {
			nb := &cfg.Block{
				ID: blk.ID, Name: blk.Name,
				Stmts:      append([]cast.Stmt(nil), blk.Stmts...),
				Term:       blk.Term,
				Cond:       blk.Cond,
				Origin:     blk.Origin,
				BranchSite: blk.BranchSite,
				SwitchSite: blk.SwitchSite,
				Tag:        blk.Tag,
				Cases:      append([]cfg.SwitchDispatch(nil), blk.Cases...),
				RetVal:     blk.RetVal,
				Anchor:     blk.Anchor,
			}
			bmap[blk] = nb
			ng.Blocks[b] = nb
			in.originOf[nb] = Origin{Func: fi, Block: blk.ID}
		}
		for b, blk := range g.Blocks {
			nb := ng.Blocks[b]
			nb.Succs = make([]*cfg.Block, len(blk.Succs))
			for k, s := range blk.Succs {
				nb.Succs[k] = bmap[s]
			}
			nb.Preds = make([]*cfg.Block, len(blk.Preds))
			for k, p := range blk.Preds {
				nb.Preds[k] = bmap[p]
			}
		}
		ng.Entry = bmap[g.Entry]
		in.graphs[fi] = ng
	}
	return in
}

func (in *inliner) finish() *cfg.Program {
	cp := &cfg.Program{
		Sem:    in.sem,
		Graphs: in.graphs,
		ByFunc: make(map[*cast.FuncDecl]*cfg.Graph, len(in.graphs)),
	}
	for fi, g := range in.graphs {
		cp.ByFunc[in.sem.Funcs[fi]] = g
	}
	return cp
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// locate finds the working-copy statement carrying call site id.
func (in *inliner) locate(caller, id int) (blk *cfg.Block, idx int, call *cast.Call, lhs *cast.Ident) {
	for _, b := range in.graphs[caller].Blocks {
		for i, s := range b.Stmts {
			if c, l := callStmt(s); c != nil && c.SiteID == id {
				return b, i, c, l
			}
		}
	}
	return nil, 0, nil, nil
}

// splice inlines one call site: the callee's current (already fully
// inlined) body is cloned into the caller at the call statement, with
// the callee's frame relocated to a fresh region at the top of the
// caller's frame. The call block is split in two: the upper half binds
// parameters and jumps into the cloned entry; every cloned return jumps
// to the lower half, which consumes the return-value slot and continues
// with the original terminator.
func (in *inliner) splice(d Decision) error {
	callerFd := in.sem.Funcs[d.Caller]
	calleeFd := in.sem.Funcs[d.Callee]
	calleeG := in.graphs[d.Callee]
	g := in.graphs[d.Caller]

	blk, idx, call, lhs := in.locate(d.Caller, d.Site)
	if call == nil {
		return fmt.Errorf("opt: site %d not found in %s (already spliced?)", d.Site, callerFd.Name())
	}
	pos := call.Pos()

	// Relocate the callee's frame objects to [base, base+regionSize) of
	// the caller's frame. base is 16-aligned, matching the interpreter's
	// frame alignment, so every relocated offset keeps its alignment.
	base := alignUp(callerFd.FrameSize, 16)
	remap := make(map[*cast.Object]*cast.Object, len(in.frameObjs[d.Callee]))
	for _, o := range in.frameObjs[d.Callee] {
		no := *o
		no.FrameOffset += base
		remap[o] = &no
		in.frameObjs[d.Caller] = append(in.frameObjs[d.Caller], &no)
	}
	regionSize := calleeFd.FrameSize
	var retTemp *cast.Object
	if lhs != nil {
		retT := calleeFd.Obj.Type.Sig.Ret
		retTemp = &cast.Object{
			Name:        calleeFd.Name() + ".ret",
			Kind:        cast.ObjVar,
			Type:        retT,
			FrameOffset: base + regionSize,
			FuncIndex:   -1,
			GlobalIndex: -1,
		}
		in.frameObjs[d.Caller] = append(in.frameObjs[d.Caller], retTemp)
		regionSize += 8
	}
	callerFd.FrameSize = alignUp(base+regionSize, 8)

	// Clone the callee's blocks under the remap. Sem-assigned IDs
	// (branch, switch, and nested call sites) are preserved: the clone's
	// dynamic counts merge with the original body's counters, which is
	// what makes exact profile folding possible.
	bmap := make(map[*cfg.Block]*cfg.Block, len(calleeG.Blocks))
	clones := make([]*cfg.Block, len(calleeG.Blocks))
	for b, cb := range calleeG.Blocks {
		nb := &cfg.Block{
			Name:       calleeFd.Name() + "." + cb.Name,
			Term:       cb.Term,
			Cond:       cast.CloneExpr(cb.Cond, remap),
			Origin:     cb.Origin,
			BranchSite: cb.BranchSite,
			SwitchSite: cb.SwitchSite,
			Tag:        cast.CloneExpr(cb.Tag, remap),
			Cases:      append([]cfg.SwitchDispatch(nil), cb.Cases...),
			RetVal:     cast.CloneExpr(cb.RetVal, remap),
			Anchor:     cb.Anchor,
		}
		nb.Stmts = make([]cast.Stmt, len(cb.Stmts))
		for i, s := range cb.Stmts {
			cs := cast.CloneBlockStmt(s, remap)
			if cl, ok := cs.(*cast.Clear); ok {
				// A Clear from an earlier splice into the callee: its
				// region moves with the rest of the callee's frame.
				cl.Off += base
			}
			nb.Stmts[i] = cs
		}
		bmap[cb] = nb
		clones[b] = nb
		in.originOf[nb] = in.originOf[cb] // fold into whatever the callee's block folds into
	}
	for b, cb := range calleeG.Blocks {
		nb := clones[b]
		nb.Succs = make([]*cfg.Block, len(cb.Succs))
		for k, s := range cb.Succs {
			nb.Succs[k] = bmap[s]
		}
	}
	in.blocksCloned += len(clones)

	// Split the call block: blk keeps the statements before the call and
	// becomes the upper half; tail is a synthetic continuation that
	// inherits the original terminator and the statements after the call.
	tail := &cfg.Block{
		Name:       blk.Name + ".cont",
		Term:       blk.Term,
		Cond:       blk.Cond,
		Origin:     blk.Origin,
		BranchSite: blk.BranchSite,
		SwitchSite: blk.SwitchSite,
		Tag:        blk.Tag,
		Cases:      blk.Cases,
		RetVal:     blk.RetVal,
		Succs:      blk.Succs,
		Anchor:     blk.Anchor,
	}
	in.originOf[tail] = Origin{Func: -1, Block: -1}
	var tailStmts []cast.Stmt
	if lhs != nil {
		// The original site converted the callee's (already
		// declared-type-converted) return value to the destination's
		// type; loading the typed slot and assigning reproduces both
		// conversions.
		tailStmts = append(tailStmts, cast.NewExprStmt(
			cast.NewAssign(lhs, cast.NewIdent(retTemp, pos), pos)))
	}
	tail.Stmts = append(tailStmts, blk.Stmts[idx+1:]...)

	// Upper half: zero the region (a real call zeroes its fresh frame),
	// bind parameters left-to-right, evaluate surplus arguments for
	// effect, then enter the cloned body.
	head := blk.Stmts[:idx:idx]
	head = append(head, cast.NewClear(base, regionSize, pos))
	for i, p := range calleeFd.Params {
		if i < len(call.Args) {
			head = append(head, cast.NewExprStmt(
				cast.NewAssign(cast.NewIdent(remap[p], pos), call.Args[i], pos)))
		}
	}
	for i := len(calleeFd.Params); i < len(call.Args); i++ {
		head = append(head, cast.NewExprStmt(call.Args[i]))
	}
	blk.Stmts = head
	blk.Term = cfg.TermJump
	blk.Cond = nil
	blk.BranchSite = -1
	blk.SwitchSite = -1
	blk.Tag = nil
	blk.Cases = nil
	blk.RetVal = nil
	blk.Succs = []*cfg.Block{bmap[calleeG.Entry]}

	// Rewire every cloned exit to the continuation. A return's value
	// lands in the slot (or is evaluated for effect when the result is
	// unused, as the original call did); a pruned dead-end — the
	// interpreter's implicit `return 0` — leaves the zeroed slot as is.
	for _, nb := range clones {
		switch nb.Term {
		case cfg.TermReturn:
			if nb.RetVal != nil {
				if retTemp != nil {
					nb.Stmts = append(nb.Stmts, cast.NewExprStmt(
						cast.NewAssign(cast.NewIdent(retTemp, pos), nb.RetVal, pos)))
				} else {
					nb.Stmts = append(nb.Stmts, cast.NewExprStmt(nb.RetVal))
				}
			}
			nb.Term = cfg.TermJump
			nb.RetVal = nil
			nb.Succs = []*cfg.Block{tail}
		case cfg.TermJump:
			if len(nb.Succs) == 0 {
				nb.Succs = []*cfg.Block{tail}
			}
		}
	}

	// Renumber densely and rebuild predecessor lists wholesale.
	g.Blocks = append(g.Blocks, tail)
	g.Blocks = append(g.Blocks, clones...)
	for i, b := range g.Blocks {
		b.ID = i
		b.Preds = b.Preds[:0]
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
	return nil
}
