package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"staticest"
	"staticest/internal/eval"
	"staticest/internal/opt"
	"staticest/internal/profile"
	"staticest/internal/reuse"
	"staticest/internal/suite"
)

// sourceRef names the program a request is about: either a benchmark
// suite member by name, or an ad-hoc C source shipped inline.
type sourceRef struct {
	// Program is a suite program name (see internal/suite).
	Program string `json:"program,omitempty"`
	// Name labels an inline source in diagnostics (default "prog.c").
	Name string `json:"name,omitempty"`
	// Source is inline C source text.
	Source string `json:"source,omitempty"`
}

// resolve returns the referenced program's display name, source bytes,
// and (for suite members) the suite entry.
func (ref *sourceRef) resolve() (name string, src []byte, prog *suite.Program, err error) {
	switch {
	case ref.Program != "" && ref.Source != "":
		return "", nil, nil, errBadRequest("request names both a suite program and inline source; pick one")
	case ref.Program != "":
		p, err := suite.ByName(ref.Program)
		if err != nil {
			return "", nil, nil, errNotFound("%v", err)
		}
		return p.Name + ".c", []byte(p.Source), p, nil
	case ref.Source != "":
		name := ref.Name
		if name == "" {
			name = "prog.c"
		}
		return name, []byte(ref.Source), nil, nil
	default:
		return "", nil, nil, errBadRequest(`request needs "program" (a suite name) or "source" (inline C)`)
	}
}

// --- POST /v1/estimate ------------------------------------------------------

// EstimateRequest asks for the full static-estimate ladder of one
// program.
type EstimateRequest struct {
	sourceRef
	// Top bounds the call-site ranking (default 10, <= 0 for all).
	Top *int `json:"top,omitempty"`
	// Reuse adds static memory reuse-distance summaries (see
	// internal/reuse) to the response.
	Reuse bool `json:"reuse,omitempty"`
}

// FuncEstimate is one function's estimates under every ladder rung.
type FuncEstimate struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	// Invocations maps estimator name (loop, smart, markov) to the
	// function-invocation estimate.
	Invocations map[string]float64 `json:"invocations"`
	// BlockFreq maps estimator name to per-entry block frequencies
	// indexed by CFG block ID.
	BlockFreq map[string][]float64 `json:"block_freq"`
}

// CallSiteRank is one entry of the global call-site ranking.
type CallSiteRank struct {
	Rank       int     `json:"rank"`
	Site       int     `json:"site"`
	Caller     string  `json:"caller"`
	Callee     string  `json:"callee"`
	Pos        string  `json:"pos"`
	FreqDirect float64 `json:"freq_direct"`
	FreqMarkov float64 `json:"freq_markov"`
}

// ReuseSourceSummary summarizes one estimator's static reuse-distance
// profile: total estimated access mass, the first-touch (cold)
// fraction, and distance quantiles. Quantiles report -1 when they land
// in the cold bucket (no finite distance).
type ReuseSourceSummary struct {
	Source   string  `json:"source"`
	Accesses float64 `json:"accesses"`
	ColdFrac float64 `json:"cold_frac"`
	Median   float64 `json:"median_distance"`
	P90      float64 `json:"p90_distance"`
}

// ReuseRefRank is one memory reference ranked by estimated access
// mass under the smart estimator.
type ReuseRefRank struct {
	Rank      int     `json:"rank"`
	Ref       string  `json:"ref"`
	Footprint float64 `json:"footprint,omitempty"`
	Accesses  float64 `json:"accesses"`
	Median    float64 `json:"median_distance"`
}

// ReuseReport is the estimate endpoint's opt-in reuse section.
type ReuseReport struct {
	Refs    int                  `json:"refs"`
	Sources []ReuseSourceSummary `json:"sources"`
	TopRefs []ReuseRefRank       `json:"top_refs"`
}

// EstimateResponse is the estimate endpoint's reply.
type EstimateResponse struct {
	Program     string         `json:"program"`
	Fingerprint string         `json:"fingerprint"`
	Functions   []FuncEstimate `json:"functions"`
	// CallSites ranks direct call sites by the smart (direct) global
	// frequency estimate, hottest first.
	CallSites []CallSiteRank `json:"call_sites"`
	// Reuse is present when the request set "reuse": true.
	Reuse *ReuseReport `json:"reuse,omitempty"`
}

func (s *Server) handleEstimate(r *http.Request) (any, error) {
	var req EstimateRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	name, src, _, err := req.resolve()
	if err != nil {
		return nil, err
	}
	c, err := s.compileCached(r.Context(), name, src)
	if err != nil {
		return nil, err
	}
	body, err := s.estimateBody(r.Context(), c, &req)
	if err != nil {
		return nil, err
	}
	return rawJSON(body), nil
}

// estimateBody returns the serialized estimate response for one
// compiled unit under the request's options, memoized per
// (fingerprint, options) pair: the first request for a shape pays for
// ranking and marshaling, repeat hits — including batch items — copy
// bytes. Both /v1/estimate and /v1/batch serve from it, which is what
// makes a batch item byte-identical to the equivalent single call.
func (s *Server) estimateBody(ctx context.Context, c *compiled, req *EstimateRequest) ([]byte, error) {
	top := 10
	if req.Top != nil {
		top = *req.Top
	}
	key := fmt.Sprintf("estimate|top=%d|reuse=%t", top, req.Reuse)
	return c.response(key, func() (any, error) {
		return buildEstimate(ctx, c, top, req.Reuse)
	})
}

// buildEstimate computes the estimate response value (the expensive
// part that c.response memoizes in encoded form).
func buildEstimate(ctx context.Context, c *compiled, top int, withReuse bool) (any, error) {
	est := c.estimates(ctx)
	u := c.unit

	resp := &EstimateResponse{Program: u.Name, Fingerprint: c.fingerprint}
	for fi, fd := range u.Sem.Funcs {
		resp.Functions = append(resp.Functions, FuncEstimate{
			Name:  fd.Name(),
			Index: fi,
			Invocations: map[string]float64{
				"loop":   est.Inter.CallSite[fi],
				"smart":  est.Inter.Direct[fi],
				"markov": est.InterMarkov.Inv[fi],
			},
			BlockFreq: map[string][]float64{
				"loop":   est.IntraLoop[fi].BlockFreq,
				"smart":  est.IntraSmart[fi].BlockFreq,
				"markov": est.IntraMarkov[fi].BlockFreq,
			},
		})
	}

	var sites []CallSiteRank
	for _, cs := range u.Sem.CallSites {
		if cs.Indirect() {
			continue
		}
		sites = append(sites, CallSiteRank{
			Site:       cs.ID,
			Caller:     cs.Caller.Name(),
			Callee:     cs.Callee.Name,
			Pos:        cs.Call.Pos().String(),
			FreqDirect: est.SiteFreqDirect[cs.ID],
			FreqMarkov: est.SiteFreqMarkov[cs.ID],
		})
	}
	sort.SliceStable(sites, func(a, b int) bool {
		if sites[a].FreqDirect != sites[b].FreqDirect {
			return sites[a].FreqDirect > sites[b].FreqDirect
		}
		return sites[a].Site < sites[b].Site
	})
	if top > 0 && len(sites) > top {
		sites = sites[:top]
	}
	for i := range sites {
		sites[i].Rank = i + 1
	}
	resp.CallSites = sites
	if withReuse {
		var err error
		resp.Reuse, err = reuseReport(ctx, c, top)
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// reuseReport derives the static reuse-distance summaries for the
// estimate endpoint: one line per estimator source over the program's
// memory references, plus the hottest references under smart.
func reuseReport(ctx context.Context, c *compiled, top int) (*ReuseReport, error) {
	tab := reuse.BuildTable(c.unit.CFG)
	rep := &ReuseReport{Refs: len(tab.Refs)}
	if len(tab.Refs) == 0 {
		return rep, nil
	}
	// Quantiles land in the cold bucket as +Inf, which JSON cannot
	// carry; report -1 instead.
	finite := func(v float64) float64 {
		if math.IsInf(v, 0) {
			return -1
		}
		return v
	}
	var smart *reuse.Profile
	for _, kind := range opt.EstimateKinds {
		src, err := opt.EstimateSource(c.unit.CFG, c.estimates(ctx), kind)
		if err != nil {
			return nil, errUnprocessable("reuse estimate: %v", err)
		}
		p := reuse.Estimate(tab, src)
		if kind == "smart" {
			smart = p
		}
		sum := ReuseSourceSummary{Source: kind, Accesses: p.Accesses()}
		if sum.Accesses > 0 {
			sum.ColdFrac = p.Total.Cold() / sum.Accesses
			sum.Median = finite(p.Total.Quantile(0.5))
			sum.P90 = finite(p.Total.Quantile(0.9))
		}
		rep.Sources = append(rep.Sources, sum)
	}
	order := make([]int, len(tab.Refs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return smart.PerRef[order[a]].Total() > smart.PerRef[order[b]].Total()
	})
	for rank, i := range order {
		if (top > 0 && rank >= top) || smart.PerRef[i].Total() <= 0 {
			break
		}
		rep.TopRefs = append(rep.TopRefs, ReuseRefRank{
			Rank:      rank + 1,
			Ref:       tab.Refs[i].Name(),
			Footprint: tab.Refs[i].Footprint,
			Accesses:  smart.PerRef[i].Total(),
			Median:    finite(smart.PerRef[i].Quantile(0.5)),
		})
	}
	return rep, nil
}

// --- POST /v1/profile -------------------------------------------------------

// ProfileRequest asks for one profiled interpreter run.
type ProfileRequest struct {
	sourceRef
	// Input selects a named suite input (suite programs only; default
	// the program's first input). Mutually exclusive with Args/Stdin.
	Input string `json:"input,omitempty"`
	// Args and Stdin define an ad-hoc input.
	Args  []string `json:"args,omitempty"`
	Stdin string   `json:"stdin,omitempty"`
	// Instrumentation is "full" (default) or "sparse" (planned probes
	// plus exact reconstruction).
	Instrumentation string `json:"instrumentation,omitempty"`
	// MaxSteps bounds block executions (capped by the server's limit).
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// FuncProfile is one function's measured counts.
type FuncProfile struct {
	Name        string    `json:"name"`
	Calls       float64   `json:"calls"`
	BlockCounts []float64 `json:"block_counts"`
}

// ProbeSummary describes the sparse instrumentation actually placed.
type ProbeSummary struct {
	Counters     int     `json:"counters"`
	ArcsTotal    int     `json:"arcs_total"`
	ArcsProbed   int     `json:"arcs_probed"`
	ArcReduction float64 `json:"arc_reduction"`
}

// ProfileResponse is the profile endpoint's reply. Under sparse
// instrumentation the profile fields are the exact reconstruction from
// the probe vector.
type ProfileResponse struct {
	Program         string        `json:"program"`
	Fingerprint     string        `json:"fingerprint"`
	Input           string        `json:"input,omitempty"`
	Instrumentation string        `json:"instrumentation"`
	ExitCode        int           `json:"exit_code"`
	Steps           int64         `json:"steps"`
	Output          string        `json:"output"`
	OutputTruncated bool          `json:"output_truncated,omitempty"`
	Cycles          float64       `json:"cycles"`
	Probes          *ProbeSummary `json:"probes,omitempty"`
	Functions       []FuncProfile `json:"functions"`
}

// maxOutputBytes caps the program output echoed back in a response.
const maxOutputBytes = 64 << 10

func (s *Server) handleProfile(r *http.Request) (any, error) {
	var req ProfileRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	name, src, prog, err := req.resolve()
	if err != nil {
		return nil, err
	}

	// Resolve the input.
	args, stdin := req.Args, []byte(req.Stdin)
	inputName := ""
	if req.Input != "" {
		if prog == nil {
			return nil, errBadRequest(`"input" names a suite input; inline sources take "args"/"stdin"`)
		}
		if len(args) > 0 || len(stdin) > 0 {
			return nil, errBadRequest(`"input" and "args"/"stdin" are mutually exclusive`)
		}
	}
	if prog != nil && len(args) == 0 && len(stdin) == 0 {
		in, err := suiteInput(prog, req.Input)
		if err != nil {
			return nil, err
		}
		args, stdin, inputName = in.Args, in.Stdin, in.Name
	}

	instr := req.Instrumentation
	if instr == "" {
		instr = "full"
	}
	if instr != "full" && instr != "sparse" {
		return nil, errBadRequest(`"instrumentation" must be "full" or "sparse" (got %q)`, instr)
	}

	c, err := s.compileCached(r.Context(), name, src)
	if err != nil {
		return nil, err
	}
	u := c.unit

	maxSteps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < maxSteps {
		maxSteps = req.MaxSteps
	}
	opts := staticest.RunOptions{Args: args, Stdin: stdin, MaxSteps: maxSteps,
		Obs: s.obs, Ctx: r.Context()}
	resp := &ProfileResponse{
		Program:         u.Name,
		Fingerprint:     c.fingerprint,
		Input:           inputName,
		Instrumentation: instr,
	}

	var prof *profile.Profile
	if instr == "sparse" {
		plan := c.probePlan(r.Context())
		opts.Instrumentation = staticest.SparseInstrumentation
		opts.Plan = plan
		res, err := u.Run(opts)
		if err != nil {
			return nil, errUnprocessable("run %s: %v", u.Name, err)
		}
		prof, err = staticest.Reconstruct(plan, res.Probes, nil)
		if err != nil {
			return nil, errUnprocessable("reconstruct %s: %v", u.Name, err)
		}
		fillRunResult(resp, res)
		resp.Probes = &ProbeSummary{
			Counters:     plan.NumProbes,
			ArcsTotal:    plan.TotalArcs,
			ArcsProbed:   plan.ProbedArcs,
			ArcReduction: plan.ArcReduction(),
		}
	} else {
		res, err := u.Run(opts)
		if err != nil {
			return nil, errUnprocessable("run %s: %v", u.Name, err)
		}
		prof = res.Profile
		fillRunResult(resp, res)
	}

	resp.Cycles = prof.Cycles
	for fi, fd := range u.Sem.Funcs {
		resp.Functions = append(resp.Functions, FuncProfile{
			Name:        fd.Name(),
			Calls:       prof.FuncCalls[fi],
			BlockCounts: prof.BlockCounts[fi],
		})
	}
	return resp, nil
}

func fillRunResult(resp *ProfileResponse, res *staticest.RunResult) {
	resp.ExitCode = res.ExitCode
	resp.Steps = res.Steps
	out := res.Output
	if len(out) > maxOutputBytes {
		out = out[:maxOutputBytes]
		resp.OutputTruncated = true
	}
	resp.Output = string(out)
}

// suiteInput resolves a named input ("" means the first).
func suiteInput(p *suite.Program, name string) (*suite.Input, error) {
	if len(p.Inputs) == 0 {
		return nil, errUnprocessable("suite program %s has no inputs", p.Name)
	}
	if name == "" {
		return &p.Inputs[0], nil
	}
	var names []string
	for i := range p.Inputs {
		if p.Inputs[i].Name == name {
			return &p.Inputs[i], nil
		}
		names = append(names, p.Inputs[i].Name)
	}
	return nil, errNotFound("program %s has no input %q (have %v)", p.Name, name, names)
}

// --- POST /v1/optimize ------------------------------------------------------

// OptimizeRequest asks for frequency-guided optimization reports.
type OptimizeRequest struct {
	sourceRef
	// FreqSource picks the driving frequencies: loop, smart, markov
	// (static; any program), profile, xprof (measured; suite programs
	// only), or live (the fleet-ingested aggregate, falling back to
	// smart static estimates for cold fingerprints). Default smart.
	FreqSource string `json:"freq_source,omitempty"`
	// Budget is the inlining size budget in cloned callee blocks
	// (default opt.DefaultBudget).
	Budget int `json:"budget,omitempty"`
	// Reports selects inline, layout, and/or spill (default all that
	// the request's program supports; layout and spill compare against
	// measured profiles and therefore need a suite program).
	Reports []string `json:"reports,omitempty"`
}

// InlineDecisionReport is one ranked inlining choice.
type InlineDecisionReport struct {
	Rank   int     `json:"rank"`
	Site   int     `json:"site"`
	Caller string  `json:"caller"`
	Callee string  `json:"callee"`
	Freq   float64 `json:"freq"`
	Cost   int     `json:"cost"`
}

// InlineReport is the budgeted inlining plan under the chosen source.
type InlineReport struct {
	Budget   int                    `json:"budget"`
	Eligible int                    `json:"eligible"`
	CostUsed int                    `json:"cost_used"`
	Chosen   []InlineDecisionReport `json:"chosen"`
}

// LayoutCandidate scores one block layout by profile-measured
// fall-through.
type LayoutCandidate struct {
	Layout      string  `json:"layout"`
	FallThrough float64 `json:"fall_through"`
	Transfers   float64 `json:"transfers"`
}

// LayoutReport compares the source-driven Pettis–Hansen layout against
// source order and the profile's own layout, plus function ordering.
type LayoutReport struct {
	Candidates []LayoutCandidate `json:"candidates"`
	FuncOrder  []string          `json:"func_order"`
	// CallDistance is the profile-weighted call distance of FuncOrder;
	// IdentityCallDistance is the same for source order.
	CallDistance         float64 `json:"call_distance"`
	IdentityCallDistance float64 `json:"identity_call_distance"`
}

// SpillFuncReport is one function's spill-ranking agreement.
type SpillFuncReport struct {
	Func        string  `json:"func"`
	Invocations float64 `json:"invocations"`
	Vars        int     `json:"vars"`
	Tau         float64 `json:"tau"`
}

// SpillReport compares spill-weight rankings under the chosen source
// against profile-driven rankings (Kendall tau-b per function).
type SpillReport struct {
	Functions []SpillFuncReport `json:"functions"`
	MeanTau   float64           `json:"mean_tau"`
}

// OptimizeResponse is the optimize endpoint's reply; only requested
// reports are present.
type OptimizeResponse struct {
	Program     string `json:"program"`
	Fingerprint string `json:"fingerprint"`
	FreqSource  string `json:"freq_source"`
	// Fallback names the source actually used when freq_source "live"
	// found no ingested profiles for this fingerprint (cold code is
	// served from static estimates).
	Fallback string        `json:"fallback,omitempty"`
	Uploads  int           `json:"uploads,omitempty"`
	Inline   *InlineReport `json:"inline,omitempty"`
	Layout   *LayoutReport `json:"layout,omitempty"`
	Spill    *SpillReport  `json:"spill,omitempty"`
}

func (s *Server) handleOptimize(r *http.Request) (any, error) {
	var req OptimizeRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	name, src, prog, err := req.resolve()
	if err != nil {
		return nil, err
	}
	kind := req.FreqSource
	if kind == "" {
		kind = "smart"
	}
	if err := checkEnum("freq_source", kind, opt.ServingSourceKinds); err != nil {
		return nil, err
	}
	reports := req.Reports
	if len(reports) == 0 {
		reports = []string{"inline"}
		if prog != nil {
			reports = []string{"inline", "layout", "spill"}
		}
	}
	want := map[string]bool{}
	for _, rep := range reports {
		if err := checkEnum("reports", rep, []string{"inline", "layout", "spill"}); err != nil {
			return nil, err
		}
		want[rep] = true
	}

	c, err := s.compileCached(r.Context(), name, src)
	if err != nil {
		return nil, err
	}
	u := c.unit

	// Measured-profile sources and profile-scored reports need the
	// suite's inputs.
	var selfSrc *opt.Source
	needProfile := kind == "profile" || kind == "xprof" || want["layout"] || want["spill"]
	if needProfile {
		if prog == nil {
			return nil, errBadRequest("freq_source %q and the layout/spill reports compare against measured profiles and need a suite program", kind)
		}
		d, err := eval.LoadCached(prog)
		if err != nil {
			return nil, errUnprocessable("profiling %s: %v", prog.Name, err)
		}
		// Score against the cache's unit so all reports share one CFG.
		self, err := profile.Aggregate(d.Profiles)
		if err != nil {
			return nil, errUnprocessable("aggregating %s profiles: %v", prog.Name, err)
		}
		selfSrc = opt.ProfileSource(u.CFG, self, "profile")
	}

	var fsrc *opt.Source
	fallback := ""
	uploads := 0
	switch kind {
	case "profile":
		fsrc = selfSrc
	case opt.LiveSourceName:
		if ls, ok := s.liveSource(c); ok {
			fsrc = ls
			if snap, ok := s.ingest.Snapshot(c.fingerprint); ok {
				uploads = snap.Uploads
			}
		} else {
			// Cold fingerprint: nothing ingested yet, so the static
			// estimator serves until the fleet warms it up.
			fallback = "smart"
			if fsrc, err = opt.EstimateSource(u.CFG, c.estimates(r.Context()), "smart"); err != nil {
				return nil, errBadRequest("%v", err)
			}
		}
	case "xprof":
		d, _ := eval.LoadCached(prog) // cached above
		held := d.Profiles
		if len(held) > 1 {
			held = held[1:]
		}
		xp, err := profile.Aggregate(held)
		if err != nil {
			return nil, errUnprocessable("aggregating %s profiles: %v", prog.Name, err)
		}
		fsrc = opt.ProfileSource(u.CFG, xp, "xprof")
	default:
		fsrc, err = opt.EstimateSource(u.CFG, c.estimates(r.Context()), kind)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
	}

	resp := &OptimizeResponse{Program: u.Name, Fingerprint: c.fingerprint,
		FreqSource: kind, Fallback: fallback, Uploads: uploads}
	if want["inline"] {
		plan := u.PlanInlineCtx(r.Context(), fsrc, req.Budget)
		rep := &InlineReport{
			Budget:   plan.Budget,
			Eligible: len(plan.Eligible),
			CostUsed: plan.CostUsed,
		}
		for i, dec := range plan.Chosen {
			rep.Chosen = append(rep.Chosen, InlineDecisionReport{
				Rank:   i + 1,
				Site:   dec.Site,
				Caller: u.Call.FuncName(dec.Caller),
				Callee: u.Call.FuncName(dec.Callee),
				Freq:   dec.Freq,
				Cost:   dec.Cost,
			})
		}
		resp.Inline = rep
	}
	if want["layout"] {
		rep := &LayoutReport{}
		for _, cand := range []struct {
			name string
			lay  *opt.Layout
		}{
			{"source-order", opt.SourceOrderLayout(u.CFG)},
			{fsrc.Name, opt.ComputeLayout(u.CFG, fsrc, s.obs)},
			{"profile", opt.ComputeLayout(u.CFG, selfSrc, s.obs)},
		} {
			rate, _, total := opt.FallThroughRate(u.CFG, cand.lay, selfSrc)
			rep.Candidates = append(rep.Candidates, LayoutCandidate{
				Layout:      cand.name,
				FallThrough: rate,
				Transfers:   total,
			})
		}
		order := opt.FuncOrder(u.Call, fsrc)
		for _, fi := range order {
			rep.FuncOrder = append(rep.FuncOrder, u.Call.FuncName(fi))
		}
		identity := make([]int, len(order))
		for i := range identity {
			identity[i] = i
		}
		rep.CallDistance = opt.WeightedCallDistance(order, u.Call, selfSrc)
		rep.IdentityCallDistance = opt.WeightedCallDistance(identity, u.Call, selfSrc)
		resp.Layout = rep
	}
	if want["spill"] {
		rep := &SpillReport{}
		var sum float64
		for fi := range u.Sem.Funcs {
			if selfSrc.Func[fi] == 0 {
				continue
			}
			ws := opt.SpillWeights(u.CFG, fi, fsrc)
			wp := opt.SpillWeights(u.CFG, fi, selfSrc)
			if len(ws) < 2 {
				continue
			}
			a := make([]float64, len(ws))
			b := make([]float64, len(ws))
			for i := range ws {
				a[i], b[i] = ws[i].Weight, wp[i].Weight
			}
			tau := opt.KendallTau(a, b)
			rep.Functions = append(rep.Functions, SpillFuncReport{
				Func:        u.Call.FuncName(fi),
				Invocations: selfSrc.Func[fi],
				Vars:        len(ws),
				Tau:         tau,
			})
			sum += tau
		}
		sort.SliceStable(rep.Functions, func(a, b int) bool {
			return rep.Functions[a].Invocations > rep.Functions[b].Invocations
		})
		if len(rep.Functions) > 0 {
			rep.MeanTau = sum / float64(len(rep.Functions))
		}
		resp.Spill = rep
	}
	return resp, nil
}

// checkEnum is cliutil.CheckEnum shaped as a 400.
func checkEnum(field, got string, valid []string) error {
	for _, v := range valid {
		if got == v {
			return nil
		}
	}
	return errBadRequest("%q must be one of %v (got %q)", field, valid, got)
}

// --- GET /v1/explain --------------------------------------------------------

// ExplainBranch is one branch site's prediction joined with its
// measured outcome.
type ExplainBranch struct {
	Site      int     `json:"site"`
	Func      string  `json:"func"`
	Pos       string  `json:"pos"`
	Cond      string  `json:"cond"`
	Heuristic string  `json:"heuristic"`
	ProbTrue  float64 `json:"prob_true"`
	PredTaken bool    `json:"pred_taken"`
	Taken     float64 `json:"taken"`
	Not       float64 `json:"not"`
	Misses    float64 `json:"misses"`
}

// ExplainHeuristic aggregates one heuristic's record.
type ExplainHeuristic struct {
	Heuristic string  `json:"heuristic"`
	Sites     int     `json:"sites"`
	Executed  int     `json:"executed"`
	Dynamic   float64 `json:"dynamic"`
	Hits      float64 `json:"hits"`
	Misses    float64 `json:"misses"`
	MissRate  float64 `json:"miss_rate"`
}

// ExplainFunc is one function's estimate-vs-profile agreement.
type ExplainFunc struct {
	Func       string  `json:"func"`
	Calls      float64 `json:"calls"`
	EstInv     float64 `json:"est_invocations"`
	Blocks     int     `json:"blocks"`
	Score      float64 `json:"score"`
	Divergence float64 `json:"divergence"`
}

// ExplainResponse is the explain endpoint's reply: the drillable
// version of the paper's aggregate miss rates for one suite program.
type ExplainResponse struct {
	Program  string  `json:"program"`
	Input    string  `json:"input"`
	Cutoff   float64 `json:"cutoff"`
	MissRate float64 `json:"miss_rate"`
	// Branches lists the worst-predicted sites (bounded by ?top=N,
	// default 10), sorted by dynamic misses descending.
	Branches   []ExplainBranch    `json:"branches"`
	Heuristics []ExplainHeuristic `json:"heuristics"`
	Functions  []ExplainFunc      `json:"functions"`
}

func (s *Server) handleExplain(r *http.Request) (any, error) {
	q := r.URL.Query()
	progName := q.Get("program")
	if progName == "" {
		return nil, errBadRequest("explain needs ?program=<suite name>")
	}
	p, err := suite.ByName(progName)
	if err != nil {
		return nil, errNotFound("%v", err)
	}
	cutoff := 0.05
	if v := q.Get("cutoff"); v != "" {
		if cutoff, err = strconv.ParseFloat(v, 64); err != nil || cutoff <= 0 || cutoff >= 1 {
			return nil, errBadRequest("cutoff must be a number in (0, 1)")
		}
	}
	top := 10
	if v := q.Get("top"); v != "" {
		if top, err = strconv.Atoi(v); err != nil {
			return nil, errBadRequest("top must be an integer")
		}
	}

	d, err := eval.LoadCached(p)
	if err != nil {
		return nil, errUnprocessable("profiling %s: %v", p.Name, err)
	}
	idx := 0
	if in := q.Get("input"); in != "" {
		found := false
		for i := range d.Profiles {
			if d.Profiles[i].Label == in {
				idx, found = i, true
				break
			}
		}
		if !found {
			_, err := suiteInput(p, in) // render the not-found error
			return nil, err
		}
	}
	rep := eval.Explain(d.Unit, d.Est, d.Profiles[idx], cutoff)

	resp := &ExplainResponse{
		Program:  rep.Program,
		Input:    rep.Profile,
		Cutoff:   rep.Cutoff,
		MissRate: rep.MissRate,
	}
	for i := range rep.Branches {
		if top > 0 && i >= top {
			break
		}
		b := &rep.Branches[i]
		resp.Branches = append(resp.Branches, ExplainBranch{
			Site:      b.ID,
			Func:      b.Func,
			Pos:       b.Pos,
			Cond:      b.Cond,
			Heuristic: b.Heuristic,
			ProbTrue:  b.ProbTrue,
			PredTaken: b.PredTaken,
			Taken:     b.Taken,
			Not:       b.Not,
			Misses:    b.Misses,
		})
	}
	for i := range rep.Heuristics {
		h := &rep.Heuristics[i]
		resp.Heuristics = append(resp.Heuristics, ExplainHeuristic{
			Heuristic: h.Heuristic,
			Sites:     h.Sites,
			Executed:  h.Executed,
			Dynamic:   h.Dynamic,
			Hits:      h.Hits,
			Misses:    h.Misses,
			MissRate:  h.MissRate(),
		})
	}
	for i := range rep.Funcs {
		f := &rep.Funcs[i]
		resp.Functions = append(resp.Functions, ExplainFunc{
			Func:       f.Func,
			Calls:      f.Calls,
			EstInv:     f.EstInv,
			Blocks:     f.Blocks,
			Score:      f.Score,
			Divergence: f.Divergence,
		})
	}
	return resp, nil
}
