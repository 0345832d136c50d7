package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/metric"
	"staticest/internal/obs"
	"staticest/internal/opt"
	"staticest/internal/profile"
	"staticest/internal/reuse"
	"staticest/internal/texttab"
)

// This file is the memory-locality experiment: measure every suite
// program's reuse-distance histogram with the interpreter's memory
// trace, derive static reuse estimates from each block-frequency
// estimator, and score estimate against measurement with the same
// metrics the paper applies to control-flow frequencies. A
// no-information uniform baseline brackets the scores from below, and
// the cache-aware spill ranking shows the estimates driving an actual
// allocation decision.

// ReuseCutoff is the weight-matching cutoff for reuse histograms: the
// top 5% of distance buckets, matching the paper's headline cutoff.
const ReuseCutoff = 0.05

// ReuseRow is one (program, source) reuse-accuracy summary.
type ReuseRow struct {
	Program string
	Source  string

	// Accesses and ColdFrac describe the source's own histogram mass.
	Accesses float64
	ColdFrac float64

	// TV is the total-variation distance between the source's and the
	// measured whole-program distance distributions (0 best, 1 worst);
	// WM is the weight-matching score at ReuseCutoff (1 best).
	TV float64
	WM float64

	// SpillTau is the mean Kendall tau-b of plain Chaitin spill
	// rankings (estimate vs measured frequencies); SpillTauCache is
	// the same with both sides' weights scaled by their reuse-derived
	// cache-miss ratios at reuse.DefaultCapacity.
	SpillTau      float64
	SpillTauCache float64
}

// ReuseProgramResult carries one program's rows plus the measured
// histogram for rendering.
type ReuseProgramResult struct {
	Program  string
	Refs     int
	Measured *reuse.Profile
	Rows     []ReuseRow
}

// ReuseProgram runs the reuse comparison for one program: trace every
// input, pool the measured histograms, and score each static source
// plus the uniform baseline. Programs with no traceable references
// return nil.
func ReuseProgram(d *ProgramData) (*ReuseProgramResult, error) {
	sp := Observer().StartSpan("reuse.program", obs.KV("prog", d.Prog.Name))
	defer sp.End()

	tab := reuse.BuildTable(d.Unit.CFG)
	if len(tab.Refs) == 0 {
		return nil, nil
	}

	// Measured side: traced reruns over every input, pooled.
	measured := &reuse.Profile{Source: "measured", PerRef: make([]reuse.Histogram, len(tab.Refs))}
	traced := 0
	for _, in := range d.Prog.Inputs {
		res, err := d.Unit.Run(profiledRunOptions(d, in.Args, in.Stdin, tab))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", d.Prog.Name, in.Name, err)
		}
		if len(res.MemTrace) == 0 {
			continue
		}
		traced++
		measured.Merge(reuse.Measure(tab, res.MemTrace))
	}
	if measured.Accesses() == 0 {
		return nil, nil
	}

	// Mean distinct addresses per traced run: each run's first touches
	// are exactly its distinct addresses.
	distinct := measured.Total.Cold() / float64(traced)

	self, err := profile.Aggregate(d.Profiles)
	if err != nil {
		return nil, err
	}
	selfSrc := opt.ProfileSource(d.Unit.CFG, self, "profile")
	measMiss := reuse.ObjectMissRatio(tab, measured, reuse.DefaultCapacity)

	result := &ReuseProgramResult{Program: d.Prog.Name, Refs: len(tab.Refs), Measured: measured}
	for _, kind := range opt.EstimateKinds {
		src, err := opt.EstimateSource(d.Unit.CFG, d.Est, kind)
		if err != nil {
			return nil, err
		}
		est := reuse.Estimate(tab, src)
		row := scoreReuse(d.Prog.Name, est, measured)
		row.SpillTau, row.SpillTauCache = reuseSpillTaus(d, src, selfSrc, tab, est, measMiss)
		result.Rows = append(result.Rows, row)
	}
	uni := reuse.UniformBaseline(measured.Accesses(), distinct)
	result.Rows = append(result.Rows, scoreReuse(d.Prog.Name, uni, measured))
	return result, nil
}

// profiledRunOptions builds traced run options for one input.
func profiledRunOptions(d *ProgramData, args []string, stdin []byte, tab *reuse.Table) staticest.RunOptions {
	return staticest.RunOptions{
		Args:    args,
		Stdin:   stdin,
		Obs:     Observer(),
		MemRefs: tab.RefIndex(),
	}
}

func scoreReuse(prog string, est, measured *reuse.Profile) ReuseRow {
	ev, mv := est.Total.Vector(), measured.Total.Vector()
	row := ReuseRow{
		Program:  prog,
		Source:   est.Source,
		Accesses: est.Accesses(),
		TV:       metric.TotalVariation(ev, mv),
		WM:       metric.WeightMatch(ev, mv, ReuseCutoff),
	}
	if row.Accesses > 0 {
		row.ColdFrac = est.Total.Cold() / row.Accesses
	}
	return row
}

// reuseSpillTaus computes the plain and cache-aware spill ranking
// agreement between an estimate source and the measured profile
// source, averaged over executed functions (those selfSrc saw called)
// with at least two candidate variables.
func reuseSpillTaus(d *ProgramData, src, selfSrc *opt.Source, tab *reuse.Table,
	est *reuse.Profile, measMiss map[*cast.Object]float64) (plain, cache float64) {
	estMiss := reuse.ObjectMissRatio(tab, est, reuse.DefaultCapacity)
	missFn := func(m map[*cast.Object]float64) func(*cast.Object) float64 {
		return func(o *cast.Object) float64 { return m[o] }
	}
	var sumP, sumC float64
	var n int
	for fi := range d.Unit.Sem.Funcs {
		if selfSrc.Func[fi] == 0 {
			continue
		}
		ws := opt.SpillWeights(d.Unit.CFG, fi, src)
		wp := opt.SpillWeights(d.Unit.CFG, fi, selfSrc)
		if len(ws) < 2 {
			continue
		}
		vec := func(w []opt.SpillWeight) []float64 {
			v := make([]float64, len(w))
			for i := range w {
				v[i] = w[i].Weight
			}
			return v
		}
		sumP += opt.KendallTau(vec(ws), vec(wp))
		wsC := opt.CacheAwareSpillWeights(ws, missFn(estMiss))
		wpC := opt.CacheAwareSpillWeights(wp, missFn(measMiss))
		sumC += opt.KendallTau(vec(wsC), vec(wpC))
		n++
	}
	if n == 0 {
		return 1, 1
	}
	return sumP / float64(n), sumC / float64(n)
}

// ReuseReport runs the reuse comparison over the whole suite and
// appends pooled SUITE rows (mean over programs per source).
func ReuseReport(data []*ProgramData) ([]*ReuseProgramResult, []ReuseRow, error) {
	var results []*ReuseProgramResult
	for _, d := range data {
		r, err := ReuseProgram(d)
		if err != nil {
			return nil, nil, err
		}
		if r != nil {
			results = append(results, r)
		}
	}
	pooled := map[string]*ReuseRow{}
	counts := map[string]int{}
	var order []string
	for _, res := range results {
		for _, r := range res.Rows {
			agg, ok := pooled[r.Source]
			if !ok {
				agg = &ReuseRow{Program: "SUITE", Source: r.Source}
				pooled[r.Source] = agg
				order = append(order, r.Source)
			}
			agg.TV += r.TV
			agg.WM += r.WM
			agg.SpillTau += r.SpillTau
			agg.SpillTauCache += r.SpillTauCache
			agg.ColdFrac += r.ColdFrac
			counts[r.Source]++
		}
	}
	var suite []ReuseRow
	for _, name := range order {
		agg := pooled[name]
		n := float64(counts[name])
		agg.TV /= n
		agg.WM /= n
		agg.SpillTau /= n
		agg.SpillTauCache /= n
		agg.ColdFrac /= n
		suite = append(suite, *agg)
	}
	return results, suite, nil
}

// RenderReuseReport renders the per-program and suite tables plus the
// measured distance-distribution figure.
func RenderReuseReport(results []*ReuseProgramResult, suite []ReuseRow) string {
	var sb strings.Builder
	sb.WriteString("Reuse-distance accuracy: static estimate vs measured stack distances\n")
	fmt.Fprintf(&sb, "tv: total variation (0 best); wm: weight match at %.0f%% cutoff (1 best);\n", 100*ReuseCutoff)
	fmt.Fprintf(&sb, "spill-tau$: cache-aware spill ranking agreement at capacity %d\n\n", int(reuse.DefaultCapacity))

	t := texttab.New("program", "source", "accesses", "cold%", "tv", "wm", "spill-tau", "spill-tau$").
		AlignRight(2, 3, 4, 5, 6, 7)
	row := func(r *ReuseRow, spill bool) {
		acc := fmt.Sprintf("%.0f", r.Accesses)
		if r.Program == "SUITE" {
			acc = "-"
		}
		st, sc := "-", "-"
		if spill {
			st = fmt.Sprintf("%.2f", r.SpillTau)
			sc = fmt.Sprintf("%.2f", r.SpillTauCache)
		}
		t.Row(r.Program, r.Source, acc,
			fmt.Sprintf("%.1f", 100*r.ColdFrac),
			fmt.Sprintf("%.3f", r.TV),
			fmt.Sprintf("%.2f", r.WM),
			st, sc)
	}
	for _, res := range results {
		m := scoreReuse(res.Program, res.Measured, res.Measured)
		row(&m, false)
		for i := range res.Rows {
			row(&res.Rows[i], res.Rows[i].Source != "uniform")
		}
	}
	for i := range suite {
		row(&suite[i], suite[i].Source != "uniform")
	}
	sb.WriteString(t.String())

	sb.WriteString("\nmeasured reuse-distance distribution (pooled over suite):\n")
	sb.WriteString(renderReuseFigure(results))
	return sb.String()
}

// renderReuseFigure draws the pooled measured histogram as log-decade
// bands.
func renderReuseFigure(results []*ReuseProgramResult) string {
	var pooled reuse.Histogram
	for _, res := range results {
		pooled.Merge(&res.Measured.Total)
	}
	total := pooled.Total()
	if total == 0 {
		return "(no traced accesses)\n"
	}
	type band struct {
		label string
		mass  float64
	}
	bands := []band{}
	byDecade := map[int]float64{}
	for i := 0; i < reuse.NumBuckets; i++ {
		if pooled.Counts[i] == 0 {
			continue
		}
		byDecade[i/10] += pooled.Counts[i]
	}
	var decs []int
	for d := range byDecade {
		decs = append(decs, d)
	}
	sort.Ints(decs)
	for _, d := range decs {
		bands = append(bands, band{
			label: fmt.Sprintf("%g..%g", math.Pow(10, float64(d)), math.Pow(10, float64(d+1))),
			mass:  byDecade[d],
		})
	}
	if d := pooled.Cold(); d > 0 {
		bands = append(bands, band{label: "cold", mass: d})
	}
	var max float64
	for _, b := range bands {
		if b.mass > max {
			max = b.mass
		}
	}
	var sb strings.Builder
	for _, b := range bands {
		fmt.Fprintf(&sb, "  %-12s %s %5.1f%%\n", b.label,
			texttab.Bar(b.mass, max, 40), 100*b.mass/total)
	}
	return sb.String()
}
