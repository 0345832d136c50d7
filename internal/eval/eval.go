// Package eval reproduces the paper's evaluation: it compiles every
// suite program, profiles it on every input, runs the full estimator
// ladder, and regenerates each table and figure (Table 1, Table 2,
// Figures 2-7, 9, 10) as structured results plus text renderings.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/metric"
	"staticest/internal/obs"
	"staticest/internal/profile"
	"staticest/internal/suite"
)

// obsv is the harness-wide observer; the suite cache is shared across
// callers, so the observer is package state rather than a parameter.
// Stored atomically: LoadSuite profiles programs from several
// goroutines.
var obsv atomic.Pointer[obs.Observer]

// SetObserver routes harness observability (per-program load/run/score
// spans, run counters) to o. Pass nil to disable. Set it before the
// first LoadSuiteCached call to capture suite loading itself.
func SetObserver(o *obs.Observer) { obsv.Store(o) }

// Observer returns the harness observer (nil when unset).
func Observer() *obs.Observer { return obsv.Load() }

// scoreSpan times one program's contribution to one experiment.
func scoreSpan(exp, prog string) *obs.Span {
	return Observer().StartSpan("eval.score", obs.KV("exp", exp), obs.KV("prog", prog))
}

// ProgramData is one program's compiled unit, estimates, and profiles.
type ProgramData struct {
	Prog     *suite.Program
	Unit     *staticest.Unit
	Est      *core.Estimates
	Profiles []*profile.Profile // parallel to Prog.Inputs
}

// Load compiles, estimates and profiles one program with the default
// configuration.
func Load(p *suite.Program) (*ProgramData, error) {
	u, err := p.CompileCached()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	esp := Observer().StartSpan("eval.estimate", obs.KV("prog", p.Name))
	est := u.Estimate()
	esp.End()
	return LoadUnit(p, u, est)
}

// LoadUnit profiles p on each of its inputs with u, a compiled unit of
// p's source, and returns the profiles with u and est, u's estimates.
// The runs use the interpreter's default step bound and no context.
func LoadUnit(p *suite.Program, u *staticest.Unit, est *core.Estimates) (*ProgramData, error) {
	o := Observer()
	sp := o.StartSpan("eval.load", obs.KV("prog", p.Name))
	defer sp.End()
	d := &ProgramData{Prog: p, Unit: u, Est: est}
	for _, in := range p.Inputs {
		rsp := sp.Child("eval.run", obs.KV("prog", p.Name), obs.KV("input", in.Name))
		res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin, Obs: o})
		rsp.End()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, in.Name, err)
		}
		o.Counter("eval_runs_total").Add(1)
		res.Profile.Label = in.Name
		d.Profiles = append(d.Profiles, res.Profile)
	}
	o.Counter("eval_programs_loaded_total").Add(1)
	return d, nil
}

// parallelism is the worker-pool width for LoadSuite (0 = GOMAXPROCS).
var parallelism atomic.Int64

// SetParallelism bounds the number of programs LoadSuite compiles and
// profiles concurrently. n <= 0 restores the default,
// runtime.GOMAXPROCS(0). Results are independent of the setting: each
// program's work is self-contained and lands in its own slot.
func SetParallelism(n int) { parallelism.Store(int64(n)) }

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runBounded executes fn(0..n-1) on a pool of at most workers
// goroutines. Each index runs exactly once; ordering between indices is
// unspecified, so fn must only touch per-index state.
func runBounded(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// LoadSuite loads every program in the suite on a bounded worker pool
// (see SetParallelism). The result is deterministic: data[i] always
// holds program i regardless of completion order.
func LoadSuite() ([]*ProgramData, error) {
	progs := suite.Programs()
	data := make([]*ProgramData, len(progs))
	errs := make([]error, len(progs))
	runBounded(len(progs), Parallelism(), func(i int) {
		data[i], errs[i] = Load(progs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

var (
	suiteOnce sync.Once
	suiteData []*ProgramData
	suiteErr  error
)

// LoadSuiteCached loads the suite once per process and returns shared,
// read-only data (the harness and benchmarks call this repeatedly).
func LoadSuiteCached() ([]*ProgramData, error) {
	suiteOnce.Do(func() {
		suiteData, suiteErr = LoadSuite()
	})
	return suiteData, suiteErr
}

// others returns all profiles except index i.
func others(profiles []*profile.Profile, i int) []*profile.Profile {
	out := make([]*profile.Profile, 0, len(profiles)-1)
	for j, p := range profiles {
		if j != i {
			out = append(out, p)
		}
	}
	return out
}

// aggregateOthers aggregates the held-out complement of profile i.
func aggregateOthers(profiles []*profile.Profile, i int) (*profile.Profile, error) {
	rest := others(profiles, i)
	if len(rest) == 0 {
		return profiles[i], nil
	}
	return profile.Aggregate(rest)
}

// rankDesc returns indices of v sorted descending (ties by index).
func rankDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// meanOverProfiles averages f(i) across profile indices.
func meanOverProfiles(n int, f func(i int) (float64, error)) (float64, error) {
	if n == 0 {
		return 0, fmt.Errorf("eval: no profiles")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		v, err := f(i)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total / float64(n), nil
}

// intraEstimateVectors extracts per-function block-frequency vectors from
// an estimator result list.
func intraEstimateVectors(res []*core.IntraResult) [][]float64 {
	out := make([][]float64, len(res))
	for i, r := range res {
		out[i] = r.BlockFreq
	}
	return out
}

// intraScore computes the paper's intra-procedural weight-matching score
// for one program: per held-out profile, score every executed function at
// the cutoff, weight by its dynamic invocation count, then average the
// per-profile results.
func intraScore(d *ProgramData, est [][]float64, cutoff float64) (float64, error) {
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		p := d.Profiles[i]
		var scores, weights []float64
		for f := range d.Unit.Sem.Funcs {
			if p.FuncCalls[f] == 0 {
				continue
			}
			scores = append(scores, metric.WeightMatch(est[f], p.BlockCounts[f], cutoff))
			weights = append(weights, p.FuncCalls[f])
		}
		if len(scores) == 0 {
			return 1, nil
		}
		return metric.WeightedMean(scores, weights), nil
	})
}

// intraProfilingScore scores cross-input profiling as the intra
// estimator: aggregate the other inputs and match against the held-out
// profile.
func intraProfilingScore(d *ProgramData, cutoff float64) (float64, error) {
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		agg, err := aggregateOthers(d.Profiles, i)
		if err != nil {
			return 0, err
		}
		p := d.Profiles[i]
		var scores, weights []float64
		for f := range d.Unit.Sem.Funcs {
			if p.FuncCalls[f] == 0 {
				continue
			}
			scores = append(scores, metric.WeightMatch(agg.BlockCounts[f], p.BlockCounts[f], cutoff))
			weights = append(weights, p.FuncCalls[f])
		}
		if len(scores) == 0 {
			return 1, nil
		}
		return metric.WeightedMean(scores, weights), nil
	})
}

// invocationScore scores a function-invocation estimate at a cutoff.
func invocationScore(d *ProgramData, est []float64, cutoff float64) (float64, error) {
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		return metric.WeightMatch(est, d.Profiles[i].FuncCalls, cutoff), nil
	})
}

// invocationProfilingScore scores cross-input profiling for invocations.
func invocationProfilingScore(d *ProgramData, cutoff float64) (float64, error) {
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		agg, err := aggregateOthers(d.Profiles, i)
		if err != nil {
			return 0, err
		}
		return metric.WeightMatch(agg.FuncCalls, d.Profiles[i].FuncCalls, cutoff), nil
	})
}

// directSiteIndices lists call sites that are direct (inlinable); the
// paper omits indirect sites from call-site scores.
func directSiteIndices(d *ProgramData) []int {
	var out []int
	for _, s := range d.Unit.Sem.CallSites {
		if !s.Indirect() {
			out = append(out, s.ID)
		}
	}
	return out
}

func gather(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

// callSiteScore scores a global call-site frequency estimate at a cutoff
// over direct sites only.
func callSiteScore(d *ProgramData, est []float64, cutoff float64) (float64, error) {
	idx := directSiteIndices(d)
	if len(idx) == 0 {
		return 1, nil
	}
	e := gather(est, idx)
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		return metric.WeightMatch(e, gather(d.Profiles[i].CallSiteCounts, idx), cutoff), nil
	})
}

// callSiteProfilingScore scores cross-input profiling for call sites.
func callSiteProfilingScore(d *ProgramData, cutoff float64) (float64, error) {
	idx := directSiteIndices(d)
	if len(idx) == 0 {
		return 1, nil
	}
	return meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
		agg, err := aggregateOthers(d.Profiles, i)
		if err != nil {
			return 0, err
		}
		return metric.WeightMatch(gather(agg.CallSiteCounts, idx),
			gather(d.Profiles[i].CallSiteCounts, idx), cutoff), nil
	})
}
