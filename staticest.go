// Package staticest reproduces "Accurate Static Estimators for Program
// Optimization" (Wagner, Maverick, Graham, Harrison; PLDI 1994): static
// compile-time estimation of basic-block frequencies, function invocation
// counts, and call-site frequencies for C programs, evaluated against
// interpreter-derived profiles with Wall's weight-matching metric.
//
// The pipeline is:
//
//	unit, err := staticest.Compile("prog.c", src) // parse, typecheck, CFGs
//	res, err := unit.Run(staticest.RunOptions{Stdin: input})  // profile
//	est := unit.Estimate()                        // static estimates
//	score := metric.WeightMatch(...)              // compare
//
// The heavy lifting lives in the internal packages; this package wires
// them together behind a stable façade.
package staticest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"staticest/internal/callgraph"
	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/interp"
	"staticest/internal/obs"
	"staticest/internal/opt"
	"staticest/internal/probes"
	"staticest/internal/profile"
	"staticest/internal/reuse"
	"staticest/internal/sem"
)

// Unit is a compiled translation unit: parsed, type-checked, with
// control-flow graphs and a call graph.
type Unit struct {
	Name string
	Sem  *sem.Program
	CFG  *cfg.Program
	Call *callgraph.Graph

	// obs is the observer the unit was compiled with (nil when
	// observability is off); Run, Estimate, and PlanProbes report to it.
	obs *obs.Observer
}

// Observer is the observability handle threaded through the pipeline;
// see internal/obs. A nil *Observer disables all recording at ~zero
// cost.
type Observer = obs.Observer

// NewObserver constructs an observability domain.
var NewObserver = obs.New

// ObserverOption configures NewObserver.
type ObserverOption = obs.Option

// Compile parses, analyzes, and builds graphs for a C source file.
func Compile(name string, src []byte) (*Unit, error) {
	return CompileObs(name, src, nil)
}

// CompileObs is Compile with observability: each phase runs under a
// timed child span of "compile" named after the layer that does it
// (cparse.parse, sem.analyze, cfg.build, callgraph.build), and the unit
// remembers the observer so later Run/Estimate/PlanProbes calls report
// to it too.
func CompileObs(name string, src []byte, o *obs.Observer) (*Unit, error) {
	return CompileCtx(context.Background(), name, src, o)
}

// CompileCtx is CompileObs with request-scoped tracing: when ctx
// carries a span (the serving layer's per-request root), the compile
// span and its phase children attach under it, so one request's whole
// span tree — server handler, compile, interpreter run — is connected.
func CompileCtx(ctx context.Context, name string, src []byte, o *obs.Observer) (*Unit, error) {
	sp := obs.StartSpanFrom(ctx, o, "compile", obs.KV("prog", name))
	defer sp.End()

	phase := sp.Child("cparse.parse")
	file, err := cparse.ParseFile(name, src)
	phase.End()
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}

	phase = sp.Child("sem.analyze")
	prog, err := sem.Analyze(file)
	phase.End()
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", name, err)
	}

	phase = sp.Child("cfg.build")
	cp, err := cfg.Build(prog)
	phase.End()
	if err != nil {
		return nil, fmt.Errorf("cfg %s: %w", name, err)
	}

	phase = sp.Child("callgraph.build")
	cg := callgraph.Build(prog)
	phase.End()

	o.Counter("compile_units_total").Add(1)
	o.Counter("compile_functions_total").Add(int64(len(prog.Funcs)))
	return &Unit{
		Name: name,
		Sem:  prog,
		CFG:  cp,
		Call: cg,
		obs:  o,
	}, nil
}

// Observer returns the observer the unit was compiled with (nil when
// observability is off).
func (u *Unit) Observer() *obs.Observer { return u.obs }

// Fingerprint returns the canonical identity of a source text: the hex
// SHA-256 of its bytes. Two sources with equal fingerprints compile to
// identical units (compilation is deterministic), so the serving layer
// keys its compiled-unit cache on it and clients can use it to confirm
// which source a response describes.
func Fingerprint(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:])
}

// RunOptions configures one profiled execution.
type RunOptions = interp.Options

// RunResult is the outcome of one profiled execution.
type RunResult = interp.Result

// Run executes the program under the profiling interpreter. When the
// unit was compiled with an observer and opts.Obs is unset, the run
// reports to the unit's observer.
func (u *Unit) Run(opts RunOptions) (*RunResult, error) {
	if opts.Obs == nil {
		opts.Obs = u.obs
	}
	return interp.Run(u.CFG, opts)
}

// Estimates bundles every static estimate the paper produces for a
// program.
type Estimates = core.Estimates

// Estimate computes the full set of static estimates with the paper's
// default configuration (smart branch predictions, loop count 5,
// predicted-arm probability 0.8).
func (u *Unit) Estimate() *Estimates {
	return u.EstimateCtx(context.Background())
}

// EstimateCtx is Estimate with request-scoped tracing: its
// "core.estimate" span attaches under ctx's span, as in CompileCtx.
func (u *Unit) EstimateCtx(ctx context.Context) *Estimates {
	return u.estimate(ctx, core.DefaultConfig())
}

// EstimateWith computes estimates under a custom configuration (used by
// the ablation benchmarks).
func (u *Unit) EstimateWith(cfg core.Config) *Estimates {
	return u.estimate(context.Background(), cfg)
}

func (u *Unit) estimate(ctx context.Context, cfg core.Config) *Estimates {
	sp := obs.StartSpanFrom(ctx, u.obs, "core.estimate", obs.KV("prog", u.Name))
	defer sp.End()
	return core.EstimateAll(u.CFG, u.Call, cfg)
}

// Aggregate re-exports profile aggregation for callers scoring
// profile-based prediction.
func Aggregate(profiles []*profile.Profile) (*profile.Profile, error) {
	return profile.Aggregate(profiles)
}

// Instrumentation modes for Run, re-exported from internal/interp.
const (
	FullInstrumentation   = interp.FullInstrumentation
	SparseInstrumentation = interp.SparseInstrumentation
)

// ProbePlan is a sparse probe placement (see internal/probes).
type ProbePlan = probes.Plan

// ProbeVector is the raw counter output of a sparse run.
type ProbeVector = probes.Vector

// PlanProbes computes the unit's optimal probe placement, weighting
// arcs with the paper's smart static estimates so counters land on the
// arcs predicted coldest. Pass the plan via RunOptions.Plan together
// with SparseInstrumentation, then recover the full profile with
// Reconstruct.
func (u *Unit) PlanProbes() *ProbePlan {
	return u.PlanProbesCtx(context.Background())
}

// PlanProbesCtx is PlanProbes with request-scoped tracing: its
// "probes.plan" span attaches under ctx's span, as in CompileCtx.
func (u *Unit) PlanProbesCtx(ctx context.Context) *ProbePlan {
	sp := obs.StartSpanFrom(ctx, u.obs, "probes.plan", obs.KV("prog", u.Name))
	defer sp.End()
	plan := probes.BuildPlan(u.CFG, probes.SmartWeights(u.CFG, core.DefaultConfig()))
	plan.Record(u.obs)
	return plan
}

// Reconstruct recovers the complete profile of a sparse run — exactly
// the profile full instrumentation would have produced.
func Reconstruct(plan *ProbePlan, vec *ProbeVector) (*profile.Profile, error) {
	return probes.Reconstruct(plan, vec, nil)
}

// DiffProfiles reports every field-level mismatch between two profiles
// under exact equality (empty means identical). It backs the sparse
// and ingest verification paths: the internal/check oracles and their
// tests.
func DiffProfiles(want, got *profile.Profile) []string {
	return probes.Diff(want, got)
}

// FreqSource is a frequency source the optimizer subsystem consumes:
// absolute block, invocation, and call-site frequencies plus edge
// frequencies (see internal/opt). Estimates and measured profiles
// present the same interface.
type FreqSource = opt.Source

// InlinePlan is a ranked, budgeted set of inlining decisions.
type InlinePlan = opt.InlinePlan

// InlineResult is a transformed (inlined) unit plus the origin map that
// folds its measured profiles back onto the original unit's shape.
type InlineResult = opt.Result

// EstimateFreqSource builds a frequency source from one of the static
// estimator ladders: "loop", "smart", or "markov".
func (u *Unit) EstimateFreqSource(kind string) (*FreqSource, error) {
	return opt.EstimateSource(u.CFG, u.Estimate(), kind)
}

// ProfileFreqSource wraps a measured (or aggregated) profile as a
// frequency source named name.
func (u *Unit) ProfileFreqSource(p *profile.Profile, name string) *FreqSource {
	return opt.ProfileSource(u.CFG, p, name)
}

// PlanInline ranks the unit's inlinable call sites by the source's
// frequencies and greedily selects them under a size budget (cloned
// callee blocks; <= 0 selects opt.DefaultBudget).
func (u *Unit) PlanInline(src *FreqSource, budget int) *InlinePlan {
	return u.PlanInlineCtx(context.Background(), src, budget)
}

// PlanInlineCtx is PlanInline with request-scoped tracing: its
// "opt.plan_inline" span attaches under ctx's span, as in CompileCtx.
func (u *Unit) PlanInlineCtx(ctx context.Context, src *FreqSource, budget int) *InlinePlan {
	sp := obs.StartSpanFrom(ctx, u.obs, "opt.plan_inline",
		obs.KV("prog", u.Name), obs.KV("source", src.Name))
	defer sp.End()
	return opt.PlanInline(u.CFG, u.Call, src, budget)
}

// ReuseTable is the program's static memory-reference table (see
// internal/reuse): one entry per scalar array subscript, pointer
// dereference, or through-memory member access, classified against its
// loop context.
type ReuseTable = reuse.Table

// ReuseProfile is a reuse-distance profile — the whole-program and
// per-reference histograms — measured from a trace or derived
// statically.
type ReuseProfile = reuse.Profile

// ReuseTable builds the unit's memory-reference table. The table's
// RefIndex feeds RunOptions.MemRefs to enable trace collection.
func (u *Unit) ReuseTable() *ReuseTable {
	return reuse.BuildTable(u.CFG)
}

// EstimateReuse derives a static reuse-distance profile for the table
// using the named block-frequency estimator ("loop", "smart", or
// "markov") as the iteration-count oracle.
func (u *Unit) EstimateReuse(t *ReuseTable, kind string) (*ReuseProfile, error) {
	sp := u.obs.StartSpan("reuse.estimate",
		obs.KV("prog", u.Name), obs.KV("source", kind))
	defer sp.End()
	src, err := opt.EstimateSource(u.CFG, u.Estimate(), kind)
	if err != nil {
		return nil, err
	}
	return reuse.Estimate(t, src), nil
}

// MeasureReuse runs the program with memory tracing enabled and folds
// the trace into a measured reuse-distance profile via the O(n log n)
// stack-distance algorithm. The run's result is returned alongside.
func (u *Unit) MeasureReuse(t *ReuseTable, opts RunOptions) (*ReuseProfile, *RunResult, error) {
	sp := u.obs.StartSpan("reuse.measure", obs.KV("prog", u.Name))
	defer sp.End()
	opts.MemRefs = t.RefIndex()
	res, err := u.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	return reuse.Measure(t, res.MemTrace), res, nil
}

// Inline applies an inlining plan and returns a new Unit wrapping the
// transformed program (the receiver is never mutated — units are shared)
// together with the transform result. The new unit runs under the same
// interpreter; fold its profiles back with opt.FoldProfile to compare
// against the original's.
func (u *Unit) Inline(plan *InlinePlan) (*Unit, *InlineResult, error) {
	res, err := opt.ApplyInline(u.CFG, u.Call, plan, u.obs)
	if err != nil {
		return nil, nil, err
	}
	nu := &Unit{
		Name: u.Name,
		Sem:  res.CFG.Sem,
		CFG:  res.CFG,
		Call: u.Call, // call sites and their IDs are preserved verbatim
		obs:  u.obs,
	}
	return nu, res, nil
}
