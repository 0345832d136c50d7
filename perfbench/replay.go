package main

import (
	"staticest"
	"staticest/internal/bc"
	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/clex"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/interp"
	"staticest/internal/opt"
	"staticest/internal/probes"
	"staticest/internal/profile"
	"staticest/internal/sem"
)

// This file replays a sampled request's work through the public function
// of each layer it exercised, one call at a time, each under a span named
// after the layer. Where one layer's function repeats another's work
// inside it (the parser lexes, EstimateAll predicts, a first run lowers
// to bytecode), the inner function is also timed on its own, as a child
// of the outer span; the outer layer's self time is then its own work
// only. Inner calls run once the request's replay is done, so that the
// replayed request does exactly the server's work, and back to back,
// with their code hot, so they err fast and the outer self time errs
// high rather than negative.

// replayer records one replay's spans.
type replayer struct {
	tr    *tracer
	req   string
	spans []span
	inner []func() // inner-layer timings, run by flush
}

// later queues an inner-layer timing until the request's replay is done.
func (r *replayer) later(name string, parent int64, fn func() int64) {
	r.inner = append(r.inner, func() { r.timed(name, parent, fn) })
}

// flush runs the queued inner-layer timings.
func (r *replayer) flush() {
	for _, f := range r.inner {
		f()
	}
	r.inner = nil
}

func (r *replayer) timed(name string, parent int64, fn func() int64) {
	r.tr.timed(&r.spans, r.req, name, parent, fn)
}

func (r *replayer) timedAs(id int64, name string, parent int64, fn func() int64) {
	r.tr.timedAs(&r.spans, id, r.req, name, parent, fn)
}

// best replays fn reps times and keeps the spans of the fastest
// repetition: the one whose spans directly under parent cover the least
// time. Taking the fastest strips the noise of the uncontended replay, so
// the server's self time (handler span minus replay) errs high, never low.
func (r *replayer) best(req string, parent int64, reps int, fn func()) []span {
	var keep []span
	var keepTotal int64 = -1
	for k := 0; k < reps; k++ {
		r.req, r.spans = req, nil
		fn()
		r.flush()
		var top []span
		for _, s := range r.spans {
			if s.Parent == parent {
				top = append(top, s)
			}
		}
		if total := coverage(top); keepTotal < 0 || total < keepTotal {
			keep, keepTotal = r.spans, total
		}
	}
	return keep
}

// lanes replays items 0..n-1 the way the server runs a batch: on lanes
// goroutines, each taking the next item when it is free.
func (r *replayer) lanes(lanes, n int, fn func(lr *replayer, i int)) {
	subs := make([]*replayer, lanes)
	for k := range subs {
		subs[k] = &replayer{tr: r.tr, req: r.req}
	}
	parallel(n, lanes, func(k, i int) { fn(subs[k], i) })
	for _, lr := range subs {
		r.spans = append(r.spans, lr.spans...)
		for _, f := range lr.inner {
			r.inner = append(r.inner, func() {
				lr.spans = nil
				f()
				r.spans = append(r.spans, lr.spans...)
			})
		}
	}
}

// decode replays the server's strict request decoding.
func (r *replayer) decode(parent int64, body []byte, v any) error {
	var err error
	r.timed("server.decode", parent, func() int64 {
		err = decodeStrict(body, v)
		return 0
	})
	return err
}

// encode replays the server's encoding of a reply value.
func (r *replayer) encode(parent int64, v any) {
	r.timed("server.encode", parent, func() int64 {
		b, _ := encodeIndented(v) // plain structs of finite numbers
		return int64(len(b))
	})
}

func (r *replayer) fingerprint(parent int64, src []byte) string {
	var fp string
	r.timed("staticest.fingerprint", parent, func() int64 {
		fp = staticest.Fingerprint(src)
		return int64(len(src))
	})
	return fp
}

// compile replays the front end: lex (inside parse), parse, sem, cfg and
// callgraph. It stops at the layer that rejects the source, as the
// server's compile does.
func (r *replayer) compile(parent int64, name string, src []byte) (*staticest.Unit, error) {
	parseID := r.tr.newID()
	var file *cast.File
	var err error
	r.timedAs(parseID, "cparse.parse", parent, func() int64 {
		file, err = cparse.ParseFile(name, src)
		return 0
	})
	r.later("clex.lex", parseID, func() int64 {
		toks, _ := clex.Tokenize(name, src) // ParseFile reports the error
		return int64(len(toks))
	})
	if err != nil {
		return nil, err
	}
	var sp *sem.Program
	r.timed("sem.analyze", parent, func() int64 {
		sp, err = sem.Analyze(file)
		return 0
	})
	if err != nil {
		return nil, err
	}
	var cp *cfg.Program
	r.timed("cfg.build", parent, func() int64 {
		cp, err = cfg.Build(sp)
		if err != nil {
			return 0
		}
		var blocks int64
		for _, g := range cp.Graphs {
			blocks += int64(len(g.Blocks))
		}
		return blocks
	})
	if err != nil {
		return nil, err
	}
	var cg *callgraph.Graph
	r.timed("callgraph.build", parent, func() int64 {
		cg = callgraph.Build(sp)
		return 0
	})
	return &staticest.Unit{Name: name, Sem: sp, CFG: cp, Call: cg}, nil
}

// estimate replays core.EstimateAll, with the branch predictor and the
// Markov intra-procedural estimator it runs inside timed on their own.
func (r *replayer) estimate(parent int64, u *staticest.Unit) *core.Estimates {
	conf := core.DefaultConfig()
	id := r.tr.newID()
	var est *core.Estimates
	r.timedAs(id, "core.estimate", parent, func() int64 {
		est = core.EstimateAll(u.CFG, u.Call, conf)
		return 0
	})
	pred := est.Pred
	r.later("core.predict", id, func() int64 {
		core.Predict(u.CFG, conf)
		return 0
	})
	r.later("core.markov_intra", id, func() int64 {
		for _, g := range u.CFG.Graphs {
			core.IntraMarkov(g, pred, conf)
		}
		return int64(len(u.CFG.Graphs))
	})
	return est
}

// plan replays the probe planner as the server's unit registration runs
// it: smart placement weights, then the placement.
func (r *replayer) plan(parent int64, u *staticest.Unit) *probes.Plan {
	var plan *probes.Plan
	r.timed("probes.plan", parent, func() int64 {
		plan = probes.BuildPlan(u.CFG, probes.SmartWeights(u.CFG, core.DefaultConfig()))
		return int64(plan.NumProbes)
	})
	return plan
}

// run replays one sparse interpreter run. With lower set, the unit has
// not run under plan before, so the run lowers it to bytecode first; the
// lowering is also timed on its own, as a child of the run.
func (r *replayer) run(parent int64, u *staticest.Unit, plan *probes.Plan, args []string,
	stdin []byte, lower bool) (*interp.Result, error) {
	id := r.tr.newID()
	var res *interp.Result
	var err error
	r.timedAs(id, "interp.run", parent, func() int64 {
		res, err = interp.Run(u.CFG, interp.Options{Args: args, Stdin: stdin, MaxSteps: serverMaxSteps,
			Instrumentation: interp.SparseInstrumentation, Plan: plan})
		if err != nil {
			return 0
		}
		return res.Steps
	})
	if lower {
		r.later("bc.compile", id, func() int64 {
			m, err := bc.Compile(u.CFG, plan)
			if err != nil {
				return 0
			}
			var n int64
			for i := range m.Funcs {
				n += int64(len(m.Funcs[i].Code))
			}
			return n
		})
	}
	return res, err
}

func (r *replayer) reconstruct(parent int64, plan *probes.Plan, vec *probes.Vector) (*profile.Profile, error) {
	var p *profile.Profile
	var err error
	r.timed("probes.reconstruct", parent, func() int64 {
		p, err = probes.Reconstruct(plan, vec, nil)
		return 0
	})
	return p, err
}

// merge replays the ingest layer's merge of one reconstructed upload
// into a unit's live aggregate: the profile.Accumulator step that
// ingest.Store.Ingest runs after reconstructing the upload. Replaying
// the two steps on their own times each without subtracting one from
// the other.
func (r *replayer) merge(parent int64, acc *profile.Accumulator, p *profile.Profile) (int, error) {
	var n int
	var err error
	r.timed("ingest.merge", parent, func() int64 {
		n, err = acc.Add(p)
		return 0
	})
	return n, err
}

func (r *replayer) planInline(parent int64, u *staticest.Unit, src *opt.Source, budget int) *opt.InlinePlan {
	var plan *opt.InlinePlan
	r.timed("opt.plan_inline", parent, func() int64 {
		plan = opt.PlanInline(u.CFG, u.Call, src, budget)
		return int64(len(plan.Chosen))
	})
	return plan
}
