package eval

import (
	"fmt"
	"strings"

	"staticest"
	"staticest/internal/cfg"
	"staticest/internal/metric"
	"staticest/internal/profile"
	"staticest/internal/texttab"
)

// Fig2Row is one program's branch-prediction miss rates (percent of
// dynamic branches mispredicted; constant conditions and switches
// excluded, per the paper).
type Fig2Row struct {
	Program string
	Smart   float64 // the paper's heuristic predictor
	Profile float64 // predicting from the aggregate of the other inputs
	PSP     float64 // perfect static predictor (profile predicts itself)
}

// branchSkip returns the per-branch-site exclusion mask (constant
// conditions).
func branchSkip(d *ProgramData) []bool {
	skip := make([]bool, len(d.Est.Pred.Branch))
	for i, bp := range d.Est.Pred.Branch {
		skip[i] = bp.Constant
	}
	return skip
}

// predictedDirections extracts the smart predictor's taken/not-taken
// guesses.
func predictedDirections(d *ProgramData) []bool {
	dir := make([]bool, len(d.Est.Pred.Branch))
	for i, bp := range d.Est.Pred.Branch {
		dir[i] = bp.Taken()
	}
	return dir
}

// Figure2 computes branch miss rates for every program.
func Figure2(data []*ProgramData) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, d := range data {
		sp := scoreSpan("f2", d.Prog.Name)
		skip := branchSkip(d)
		dirs := predictedDirections(d)
		smart, err := meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
			p := d.Profiles[i]
			return metric.MissRate(dirs, p.BranchTaken, p.BranchNot, skip), nil
		})
		if err != nil {
			return nil, err
		}
		prof, err := meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
			agg, err := aggregateOthers(d.Profiles, i)
			if err != nil {
				return 0, err
			}
			dir := make([]bool, len(agg.BranchTaken))
			for b := range dir {
				dir[b] = agg.BranchTaken[b] > agg.BranchNot[b]
			}
			p := d.Profiles[i]
			return metric.MissRate(dir, p.BranchTaken, p.BranchNot, skip), nil
		})
		if err != nil {
			return nil, err
		}
		psp, err := meanOverProfiles(len(d.Profiles), func(i int) (float64, error) {
			p := d.Profiles[i]
			return metric.PerfectStaticMissRate(p.BranchTaken, p.BranchNot, skip), nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{
			Program: d.Prog.Name,
			Smart:   smart * 100, Profile: prof * 100, PSP: psp * 100,
		})
		sp.End()
	}
	return rows, nil
}

// RenderFigure2 renders Figure 2 as a text chart.
func RenderFigure2(rows []Fig2Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: branch miss rates (% of dynamic branches mispredicted)\n")
	sb.WriteString("constant-condition branches and switches omitted\n\n")
	t := texttab.New("program", "predictor", "profiling", "PSP").AlignRight(1, 2, 3)
	var s, p, q float64
	for _, r := range rows {
		t.Row(r.Program, r.Smart, r.Profile, r.PSP)
		s += r.Smart
		p += r.Profile
		q += r.PSP
	}
	n := float64(len(rows))
	t.Row("AVERAGE", s/n, p/n, q/n)
	sb.WriteString(t.String())
	return sb.String()
}

// Fig4Row is one program's intra-procedural weight-matching scores (%).
type Fig4Row struct {
	Program string
	Loop    float64
	Smart   float64
	Markov  float64
	Profile float64
}

// Figure4 scores the intra-procedural estimators at the paper's 5%
// cutoff.
func Figure4(data []*ProgramData) ([]Fig4Row, error) {
	return Figure4At(data, 0.05)
}

// Figure4At scores the intra-procedural estimators at an arbitrary
// cutoff (used by ablations).
func Figure4At(data []*ProgramData, cutoff float64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, d := range data {
		sp := scoreSpan("f4", d.Prog.Name)
		loop, err := intraScore(d, intraEstimateVectors(d.Est.IntraLoop), cutoff)
		if err != nil {
			return nil, err
		}
		smart, err := intraScore(d, intraEstimateVectors(d.Est.IntraSmart), cutoff)
		if err != nil {
			return nil, err
		}
		markov, err := intraScore(d, intraEstimateVectors(d.Est.IntraMarkov), cutoff)
		if err != nil {
			return nil, err
		}
		prof, err := intraProfilingScore(d, cutoff)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Program: d.Prog.Name,
			Loop:    loop * 100, Smart: smart * 100,
			Markov: markov * 100, Profile: prof * 100,
		})
		sp.End()
	}
	return rows, nil
}

// RenderFigure4 renders Figure 4.
func RenderFigure4(rows []Fig4Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 4: intra-procedural weight-matching scores (5% cutoff)\n\n")
	t := texttab.New("program", "loop", "smart", "markov", "profiling").AlignRight(1, 2, 3, 4)
	var a, b, c, p float64
	for _, r := range rows {
		t.Row(r.Program, r.Loop, r.Smart, r.Markov, r.Profile)
		a += r.Loop
		b += r.Smart
		c += r.Markov
		p += r.Profile
	}
	n := float64(len(rows))
	t.Row("AVERAGE", a/n, b/n, c/n, p/n)
	sb.WriteString(t.String())
	return sb.String()
}

// Fig5Row is one program's function-invocation weight-matching scores
// (%) at a given cutoff.
type Fig5Row struct {
	Program  string
	CallSite float64
	Direct   float64
	AllRec   float64
	AllRec2  float64
	Markov   float64
	Profile  float64
}

// Figure5 scores the invocation estimators at the given cutoff
// (Figure 5a uses 25%; 5b compares direct/markov at 10%; 5c at 25%).
func Figure5(data []*ProgramData, cutoff float64) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, d := range data {
		sp := scoreSpan("f5", d.Prog.Name)
		row := Fig5Row{Program: d.Prog.Name}
		for _, c := range []struct {
			est []float64
			out *float64
		}{
			{d.Est.Inter.CallSite, &row.CallSite},
			{d.Est.Inter.Direct, &row.Direct},
			{d.Est.Inter.AllRec, &row.AllRec},
			{d.Est.Inter.AllRec2, &row.AllRec2},
			{d.Est.InterMarkov.Inv, &row.Markov},
		} {
			v, err := invocationScore(d, c.est, cutoff)
			if err != nil {
				return nil, err
			}
			*c.out = v * 100
		}
		p, err := invocationProfilingScore(d, cutoff)
		if err != nil {
			return nil, err
		}
		row.Profile = p * 100
		rows = append(rows, row)
		sp.End()
	}
	return rows, nil
}

// RenderFigure5a renders the simple-estimator comparison at 25%.
func RenderFigure5a(rows []Fig5Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 5a: function-invocation scores, simple estimators (25% cutoff)\n\n")
	t := texttab.New("program", "call_site", "direct", "all_rec", "all_rec2", "profiling").
		AlignRight(1, 2, 3, 4, 5)
	var a, b, c, d2, p float64
	for _, r := range rows {
		t.Row(r.Program, r.CallSite, r.Direct, r.AllRec, r.AllRec2, r.Profile)
		a += r.CallSite
		b += r.Direct
		c += r.AllRec
		d2 += r.AllRec2
		p += r.Profile
	}
	n := float64(len(rows))
	t.Row("AVERAGE", a/n, b/n, c/n, d2/n, p/n)
	sb.WriteString(t.String())
	return sb.String()
}

// RenderFigure5bc renders the direct/markov/profiling comparison at a
// cutoff (Figure 5b at 10%, 5c at 25%).
func RenderFigure5bc(rows []Fig5Row, cutoffPct int, letter string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5%s: direct vs Markov vs profiling (%d%% cutoff)\n\n",
		letter, cutoffPct)
	t := texttab.New("program", "direct", "markov", "profiling").AlignRight(1, 2, 3)
	var b, m, p float64
	for _, r := range rows {
		t.Row(r.Program, r.Direct, r.Markov, r.Profile)
		b += r.Direct
		m += r.Markov
		p += r.Profile
	}
	n := float64(len(rows))
	t.Row("AVERAGE", b/n, m/n, p/n)
	sb.WriteString(t.String())
	return sb.String()
}

// Fig9Row is one program's call-site weight-matching scores (%) at the
// 25% cutoff (indirect sites excluded).
type Fig9Row struct {
	Program string
	Direct  float64
	Markov  float64
	Profile float64
}

// Figure9 scores global call-site frequency estimates.
func Figure9(data []*ProgramData) ([]Fig9Row, error) {
	return Figure9At(data, 0.25)
}

// Figure9At scores call-site estimates at an arbitrary cutoff.
func Figure9At(data []*ProgramData, cutoff float64) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, d := range data {
		sp := scoreSpan("f9", d.Prog.Name)
		direct, err := callSiteScore(d, d.Est.SiteFreqDirect, cutoff)
		if err != nil {
			return nil, err
		}
		markov, err := callSiteScore(d, d.Est.SiteFreqMarkov, cutoff)
		if err != nil {
			return nil, err
		}
		prof, err := callSiteProfilingScore(d, cutoff)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Program: d.Prog.Name,
			Direct:  direct * 100, Markov: markov * 100, Profile: prof * 100,
		})
		sp.End()
	}
	return rows, nil
}

// RenderFigure9 renders Figure 9.
func RenderFigure9(rows []Fig9Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: call-site weight-matching scores (25% cutoff, direct sites only)\n\n")
	t := texttab.New("program", "direct", "markov", "profiling").AlignRight(1, 2, 3)
	var b, m, p float64
	for _, r := range rows {
		t.Row(r.Program, r.Direct, r.Markov, r.Profile)
		b += r.Direct
		m += r.Markov
		p += r.Profile
	}
	n := float64(len(rows))
	t.Row("AVERAGE", b/n, m/n, p/n)
	sb.WriteString(t.String())
	return sb.String()
}

// Fig10Curve is one ordering's speedup curve in the selective
// optimization experiment.
type Fig10Curve struct {
	Order    string
	Ks       []int
	Speedups []float64 // unoptimized cycles / optimized cycles
}

// Figure10 reproduces the compress selective-optimization experiment:
// optimize the top-k functions under three orderings (the static Markov
// estimate, the first profile, and the aggregate of the remaining
// profiles) and measure simulated cycles on the held-out timing input.
// optFactor is the per-block cost multiplier for optimized functions.
// Optimizing changes a block's cost, not its count, so the timing input
// runs once and each optimized set prices the same counts
// (cfg.Cycles).
func Figure10(d *ProgramData, optFactor float64) ([]Fig10Curve, error) {
	if d.Prog.TimingInput == nil {
		return nil, fmt.Errorf("%s has no timing input", d.Prog.Name)
	}
	res, err := d.Unit.Run(staticest.RunOptions{
		Args:  d.Prog.TimingInput.Args,
		Stdin: d.Prog.TimingInput.Stdin,
	})
	if err != nil {
		return nil, err
	}
	cycles := func(optimized []int) float64 {
		factor := make(map[int]float64, len(optimized))
		for _, f := range optimized {
			factor[f] = optFactor
		}
		return cfg.Cycles(d.Unit.CFG, res.Profile.BlockCounts, factor)
	}
	nf := len(d.Unit.Sem.Funcs)
	ks := []int{0, 1, 2, 3, 4, 5, 6, nf}

	// The three orderings the paper compares.
	restAgg, err := profileAggregate(others(d.Profiles, 0))
	if err != nil {
		return nil, err
	}
	orderings := []struct {
		name string
		rank []int
	}{
		{"estimate", rankDesc(d.Est.InterMarkov.Inv)},
		{"profile", rankDesc(d.Profiles[0].FuncCalls)},
		{"aggregate", rankDesc(restAgg.FuncCalls)},
	}

	base := cycles(nil)
	var curves []Fig10Curve
	for _, ord := range orderings {
		curve := Fig10Curve{Order: ord.name, Ks: ks}
		for _, k := range ks {
			top := ord.rank
			if k < len(top) {
				top = top[:k]
			}
			curve.Speedups = append(curve.Speedups, base/cycles(top))
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

func profileAggregate(ps []*profile.Profile) (*profile.Profile, error) {
	if len(ps) == 1 {
		return ps[0], nil
	}
	return profile.Aggregate(ps)
}

// RenderFigure10 renders the speedup curves.
func RenderFigure10(curves []Fig10Curve) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: speedup from selectively optimizing compress\n")
	sb.WriteString("(simulated cycles on a held-out input; optimized functions run cheaper)\n\n")
	if len(curves) == 0 {
		return sb.String()
	}
	header := []string{"k funcs"}
	for _, c := range curves {
		header = append(header, c.Order)
	}
	t := texttab.New(header...).AlignRight(1, 2, 3)
	for i, k := range curves[0].Ks {
		row := []any{fmt.Sprintf("%d", k)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.3f", c.Speedups[i]))
		}
		t.Row(row...)
	}
	sb.WriteString(t.String())
	return sb.String()
}
