package check

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"

	"staticest"
	"staticest/internal/gen"
	"staticest/internal/ingest"
	"staticest/internal/interp"
	"staticest/internal/metric"
	"staticest/internal/opt"
	"staticest/internal/profile"
	"staticest/internal/reuse"
	"staticest/internal/server"
)

// SparseOracle runs the program under full and sparse instrumentation
// and demands that the probe vector reconstructs the full profile
// exactly — the paper's optimal-instrumentation claim, checked on an
// arbitrary program instead of the 14 suite programs.
func SparseOracle(u *staticest.Unit) []Failure {
	full, err := u.Run(staticest.RunOptions{})
	if err != nil {
		return []Failure{{Oracle: "sparse", Detail: "full run: " + err.Error()}}
	}
	plan := u.PlanProbes()
	sparse, err := u.Run(staticest.RunOptions{
		Instrumentation: staticest.SparseInstrumentation,
		Plan:            plan,
	})
	if err != nil {
		return []Failure{{Oracle: "sparse", Detail: "sparse run: " + err.Error()}}
	}
	rec, err := staticest.Reconstruct(plan, sparse.Probes, nil)
	if err != nil {
		return []Failure{{Oracle: "sparse", Detail: "reconstruct: " + err.Error()}}
	}
	return profileDiffFailures("sparse", staticest.DiffProfiles(full.Profile, rec))
}

// BytecodeOracle runs the program through interp.Run (the bytecode
// lowering) and interp.RunReference (the tree-walking evaluator) in both
// instrumentation modes and demands identical observables (DiffRuns).
// The suite's TestEngineDifferential pins the 14 fixed programs; this
// oracle extends the same check to arbitrary generated programs.
func BytecodeOracle(u *staticest.Unit) []Failure {
	var out []Failure
	for _, run := range []struct {
		label string
		opts  staticest.RunOptions
	}{
		{"full", staticest.RunOptions{}},
		{"sparse", staticest.RunOptions{Instrumentation: staticest.SparseInstrumentation, Plan: u.PlanProbes()}},
	} {
		ref, err := interp.RunReference(u.CFG, run.opts)
		if err != nil {
			out = append(out, Failure{Oracle: "bc", Detail: run.label + " tree run: " + err.Error()})
			continue
		}
		got, err := u.Run(run.opts)
		if err != nil {
			out = append(out, Failure{Oracle: "bc", Detail: run.label + " bytecode run: " + err.Error()})
			continue
		}
		for _, d := range DiffRuns(ref, got) {
			out = append(out, Failure{Oracle: "bc", Detail: run.label + " " + d})
		}
	}
	return out
}

// DiffRuns lists every observable difference between a reference run
// and a bytecode run of the same program and options: exit code,
// output, step count, full profile, sparse probe counts and escapes,
// and memory trace. Empty means identical.
func DiffRuns(ref, got *staticest.RunResult) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if ref.ExitCode != got.ExitCode {
		add("exit code: tree %d, bytecode %d", ref.ExitCode, got.ExitCode)
	}
	if !bytes.Equal(ref.Output, got.Output) {
		add("output differs (tree %d bytes, bytecode %d bytes)", len(ref.Output), len(got.Output))
	}
	if ref.Steps != got.Steps {
		add("steps: tree %d, bytecode %d", ref.Steps, got.Steps)
	}
	switch {
	case ref.Profile != nil && got.Profile != nil:
		for _, d := range staticest.DiffProfiles(ref.Profile, got.Profile) {
			add("profile: %s", d)
		}
	case ref.Probes != nil && got.Probes != nil:
		if !slices.Equal(ref.Probes.Counts, got.Probes.Counts) {
			add("probe counts differ (tree %d counters, bytecode %d)", len(ref.Probes.Counts), len(got.Probes.Counts))
		}
		if !slices.Equal(ref.Probes.Escapes, got.Probes.Escapes) {
			add("escapes: tree %+v, bytecode %+v", ref.Probes.Escapes, got.Probes.Escapes)
		}
	default:
		add("result shape: tree profile=%t probes=%t, bytecode profile=%t probes=%t",
			ref.Profile != nil, ref.Probes != nil, got.Profile != nil, got.Probes != nil)
	}
	if !slices.Equal(ref.MemTrace, got.MemTrace) {
		add("memory trace differs (tree %d accesses, bytecode %d)", len(ref.MemTrace), len(got.MemTrace))
	}
	return out
}

// ReuseOracle traces one run's memory accesses and checks the
// stack-distance accounting end to end: the measured histogram mass
// equals the trace length, the per-reference histograms partition the
// whole-program one, cold mass equals the number of distinct traced
// addresses, no finite distance bucket lies beyond what that address
// count admits, and the static estimate scores against the measurement
// inside the metrics' ranges (total variation and weight match both in
// [0, 1]).
func ReuseOracle(u *staticest.Unit, opts staticest.RunOptions) []Failure {
	tab := u.ReuseTable()
	if len(tab.Refs) == 0 {
		return nil
	}
	fail := func(format string, args ...any) Failure {
		return Failure{Oracle: "reuse", Detail: fmt.Sprintf(format, args...)}
	}
	measured, res, err := u.MeasureReuse(tab, opts)
	if err != nil {
		return []Failure{fail("traced run: %v", err)}
	}
	var out []Failure
	if got, want := measured.Accesses(), float64(len(res.MemTrace)); got != want {
		out = append(out, fail("histogram mass %.0f != trace length %.0f", got, want))
	}
	var refSum reuse.Histogram
	for i := range measured.PerRef {
		refSum.Merge(&measured.PerRef[i])
	}
	for b := range refSum.Counts {
		if refSum.Counts[b] != measured.Total.Counts[b] {
			out = append(out, fail("per-ref histograms do not partition the total at bucket %d: %g vs %g",
				b, refSum.Counts[b], measured.Total.Counts[b]))
			break
		}
	}
	distinct := map[uint64]bool{}
	for _, a := range res.MemTrace {
		distinct[a.Addr] = true
	}
	if got, want := measured.Total.Cold(), float64(len(distinct)); got != want {
		out = append(out, fail("cold mass %.0f != distinct addresses %.0f", got, want))
	}
	for b := reuse.NumBuckets - 1; b >= 0; b-- {
		if measured.Total.Counts[b] == 0 {
			continue
		}
		// The bucket's lower edge must admit a distance a trace with
		// this many distinct addresses can produce (at most distinct-1).
		if b > 0 && reuse.BucketBound(b-1) > float64(len(distinct)-1) {
			out = append(out, fail("distance bucket %d (lower edge %.0f) beyond distinct addresses %d",
				b, reuse.BucketBound(b-1), len(distinct)))
		}
		break
	}
	est, err := u.EstimateReuse(tab, "smart")
	if err != nil {
		return append(out, fail("estimate: %v", err))
	}
	tv := metric.TotalVariation(est.Total.Vector(), measured.Total.Vector())
	wm := metric.WeightMatch(est.Total.Vector(), measured.Total.Vector(), 0.05)
	if tv < 0 || tv > 1 || math.IsNaN(tv) {
		out = append(out, fail("total variation %g outside [0, 1]", tv))
	}
	if wm < 0 || wm > 1 || math.IsNaN(wm) {
		out = append(out, fail("weight match %g outside [0, 1]", wm))
	}
	return out
}

// IngestOracle pushes the program through the online-aggregation
// pipeline and demands it agree with the offline one exactly: three
// sparse uploads through an ingest.Store must snapshot to byte-for-byte
// the profile.Aggregate of the same three reconstructed profiles. It
// also demands a replayed upload ID be rejected without touching the
// aggregate.
func IngestOracle(u *staticest.Unit) []Failure {
	plan := u.PlanProbes()
	sparse, err := u.Run(staticest.RunOptions{
		Instrumentation: staticest.SparseInstrumentation,
		Plan:            plan,
	})
	if err != nil {
		return []Failure{{Oracle: "ingest", Detail: "sparse run: " + err.Error()}}
	}
	rec, err := staticest.Reconstruct(plan, sparse.Probes, nil)
	if err != nil {
		return []Failure{{Oracle: "ingest", Detail: "reconstruct: " + err.Error()}}
	}

	const fp = "oracle-unit"
	st := ingest.NewStore(nil)
	st.Register(fp, u.Name, plan)
	var offline []*profile.Profile
	for i := 1; i <= 3; i++ {
		label := fmt.Sprintf("run%d", i)
		if _, err := st.Ingest(fp, ingest.Upload{ID: label, Label: label, Vector: sparse.Probes}); err != nil {
			return []Failure{{Oracle: "ingest", Detail: "upload " + label + ": " + err.Error()}}
		}
		q := rec.Clone()
		q.Label = label
		offline = append(offline, q)
	}
	if _, err := st.Ingest(fp, ingest.Upload{ID: "run1", Label: "replay", Vector: sparse.Probes}); !errors.Is(err, ingest.ErrDuplicate) {
		return []Failure{{Oracle: "ingest", Detail: fmt.Sprintf("replayed upload ID: err = %v, want ErrDuplicate", err)}}
	}

	snap, ok := st.Snapshot(fp)
	if !ok {
		return []Failure{{Oracle: "ingest", Detail: "no snapshot after three uploads"}}
	}
	if snap.Uploads != 3 {
		return []Failure{{Oracle: "ingest", Detail: fmt.Sprintf("uploads = %d, want 3", snap.Uploads)}}
	}
	want, err := profile.Aggregate(offline)
	if err != nil {
		return []Failure{{Oracle: "ingest", Detail: "offline aggregate: " + err.Error()}}
	}
	return profileDiffFailures("ingest", staticest.DiffProfiles(want, snap.Profile))
}

// InlineOracle inlines the hottest call sites under the smart estimate
// source, reruns the transformed program, folds its profile back onto
// the original shape, and demands exact equivalence. A program with no
// eligible site passes vacuously.
func InlineOracle(u *staticest.Unit) []Failure {
	src, err := u.EstimateFreqSource("smart")
	if err != nil {
		return []Failure{{Oracle: "inline", Detail: "source: " + err.Error()}}
	}
	plan := u.PlanInline(src, 0)
	if len(plan.Chosen) == 0 {
		return nil
	}
	nu, res, err := u.Inline(plan)
	if err != nil {
		return []Failure{{Oracle: "inline", Detail: "apply: " + err.Error()}}
	}
	want, err := u.Run(staticest.RunOptions{})
	if err != nil {
		return []Failure{{Oracle: "inline", Detail: "original run: " + err.Error()}}
	}
	got, err := nu.Run(staticest.RunOptions{})
	if err != nil {
		return []Failure{{Oracle: "inline", Detail: "inlined run: " + err.Error()}}
	}
	folded := opt.FoldProfile(u.CFG, res, got.Profile)
	return profileDiffFailures("inline", opt.CheckEquivalence(u.CFG, res, want.Profile, folded))
}

// MetamorphicOracle applies every semantics-preserving mutation the
// generator defines and compares estimates. Exact mutations (comments,
// renames) must leave every estimate bitwise identical; the dead-pad
// mutation must leave every pre-existing prediction, invocation count,
// and non-main block frequency unchanged. src must be a generated
// program (the mutations rely on the generator's naming and PadMarker).
func MetamorphicOracle(name string, src []byte, u *staticest.Unit, est *staticest.Estimates) []Failure {
	var out []Failure
	for _, m := range gen.Mutations {
		msrc := gen.Mutate(src, m)
		if bytes.Equal(msrc, src) {
			// Non-generated input (no marker to pad, nothing to rename):
			// nothing to compare.
			continue
		}
		mu, err := staticest.Compile(name, msrc)
		if err != nil {
			out = append(out, Failure{Oracle: "metamorphic",
				Detail: fmt.Sprintf("%v mutant does not compile: %v", m, err)})
			continue
		}
		mest := mu.Estimate()
		if m.Exact() {
			out = append(out, compareExact(m, u, est, mest)...)
		} else {
			out = append(out, compareDeadPad(m, u, est, mest)...)
		}
	}
	return out
}

func compareExact(m gen.Mutation, u *staticest.Unit, a, b *staticest.Estimates) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "metamorphic",
			Detail: fmt.Sprintf("%v: ", m) + fmt.Sprintf(format, args...)})
	}
	if len(a.Pred.Branch) != len(b.Pred.Branch) {
		fail("branch site count %d != %d", len(b.Pred.Branch), len(a.Pred.Branch))
		return out
	}
	for i := range a.Pred.Branch {
		if a.Pred.Branch[i] != b.Pred.Branch[i] {
			fail("branch %d prediction changed: %+v -> %+v", i, a.Pred.Branch[i], b.Pred.Branch[i])
		}
	}
	for fi := range u.CFG.Graphs {
		name := u.CFG.Graphs[fi].Fn.Obj.Name
		cmpSlice(fail, "loop intra "+name, a.IntraLoop[fi].BlockFreq, b.IntraLoop[fi].BlockFreq, 0)
		cmpSlice(fail, "smart intra "+name, a.IntraSmart[fi].BlockFreq, b.IntraSmart[fi].BlockFreq, 0)
		cmpSlice(fail, "markov intra "+name, a.IntraMarkov[fi].BlockFreq, b.IntraMarkov[fi].BlockFreq, 0)
	}
	cmpSlice(fail, "direct invocations", a.Inter.Direct, b.Inter.Direct, 0)
	cmpSlice(fail, "markov invocations", a.InterMarkov.Inv, b.InterMarkov.Inv, 0)
	cmpSlice(fail, "site freq direct", a.SiteFreqDirect, b.SiteFreqDirect, 0)
	cmpSlice(fail, "site freq markov", a.SiteFreqMarkov, b.SiteFreqMarkov, 0)
	return out
}

// compareDeadPad checks the stable subset: the pad adds one branch site
// (sorted after all pre-existing ones) and new blocks in main only.
func compareDeadPad(m gen.Mutation, u *staticest.Unit, a, b *staticest.Estimates) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "metamorphic",
			Detail: fmt.Sprintf("%v: ", m) + fmt.Sprintf(format, args...)})
	}
	if len(b.Pred.Branch) != len(a.Pred.Branch)+1 {
		fail("expected exactly one new branch site, got %d -> %d",
			len(a.Pred.Branch), len(b.Pred.Branch))
		return out
	}
	for i := range a.Pred.Branch {
		if a.Pred.Branch[i] != b.Pred.Branch[i] {
			fail("pre-existing branch %d changed: %+v -> %+v", i, a.Pred.Branch[i], b.Pred.Branch[i])
		}
	}
	pad := b.Pred.Branch[len(a.Pred.Branch)]
	if pad.Heuristic != "const" || pad.ConstTrue {
		fail("pad branch predicted %+v, want folded-false const", pad)
	}
	mainIdx := -1
	if u.Sem.Main != nil {
		mainIdx = u.Sem.Main.Obj.FuncIndex
	}
	for fi := range u.CFG.Graphs {
		if fi == mainIdx {
			continue // main gains blocks; its layout legitimately changes
		}
		name := u.CFG.Graphs[fi].Fn.Obj.Name
		cmpSlice(fail, "smart intra "+name, a.IntraSmart[fi].BlockFreq, b.IntraSmart[fi].BlockFreq, probEps)
		cmpSlice(fail, "markov intra "+name, a.IntraMarkov[fi].BlockFreq, b.IntraMarkov[fi].BlockFreq, probEps)
	}
	cmpSlice(fail, "direct invocations", a.Inter.Direct, b.Inter.Direct, probEps)
	cmpSlice(fail, "markov invocations", a.InterMarkov.Inv, b.InterMarkov.Inv, probEps)
	cmpSlice(fail, "site freq direct", a.SiteFreqDirect, b.SiteFreqDirect, probEps)
	cmpSlice(fail, "site freq markov", a.SiteFreqMarkov, b.SiteFreqMarkov, probEps)
	return out
}

func cmpSlice(fail func(string, ...any), what string, a, b []float64, eps float64) {
	if len(a) != len(b) {
		fail("%s: length %d != %d", what, len(b), len(a))
		return
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > eps*(1+math.Abs(a[i])) || (eps == 0 && a[i] != b[i]) {
			fail("%s: entry %d changed %v -> %v", what, i, a[i], b[i])
			return
		}
	}
}

// ServerOracle posts the source to an in-process estimation service —
// twice to one instance (cold, then cached) and once to a fresh
// instance — and demands all three bodies be byte-identical and agree
// with the direct library computation on the fingerprint.
func ServerOracle(name string, src []byte) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "server", Detail: fmt.Sprintf(format, args...)})
	}
	body, err := json.Marshal(struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}{Name: name, Source: string(src)})
	if err != nil {
		fail("marshal request: %v", err)
		return out
	}
	post := func(ts *httptest.Server) []byte {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			fail("POST: %v", err)
			return nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fail("status %d: %s", resp.StatusCode, b)
			return nil
		}
		return b
	}
	ts1 := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts1.Close()
	cold := post(ts1)
	warm := post(ts1)
	ts2 := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts2.Close()
	fresh := post(ts2)
	if cold == nil || warm == nil || fresh == nil {
		return out
	}
	if !bytes.Equal(cold, warm) {
		fail("cached response differs from cold response")
	}
	if !bytes.Equal(cold, fresh) {
		fail("second instance differs from first")
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(cold, &er); err != nil {
		fail("unmarshal response: %v", err)
		return out
	}
	if want := staticest.Fingerprint(src); er.Fingerprint != want {
		fail("fingerprint %s != library %s", er.Fingerprint, want)
	}
	return out
}

// BatchOracle is the batch-vs-sequential equivalence check: a
// POST /v1/batch over N items must return, per item, the exact bytes N
// individual /v1/estimate calls produce — same payload for successes
// (byte-identical, not just semantically equal), same status and error
// message for failures, in request order. The item mix exercises the
// cold path, a mutated sibling (distinct fingerprint), a compile error
// (per-item isolation), and a repeat of the first item (the memoized
// path must serve the same bytes the cold path did).
func BatchOracle(name string, src []byte) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "batch", Detail: fmt.Sprintf(format, args...)})
	}

	type item struct {
		Name   string `json:"name,omitempty"`
		Source string `json:"source"`
	}
	broken := "int main(void { return 0; }"
	items := []item{
		{Name: name, Source: string(src)},
		{Name: "mut_" + name, Source: string(gen.Mutate(src, gen.MutComments))},
		{Source: broken},
		{Name: name, Source: string(src)},
	}

	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	// Sequential reference: one /v1/estimate call per item, recording
	// body bytes for successes and (status, message) for failures.
	type single struct {
		status int
		body   []byte
		errMsg string
	}
	singles := make([]single, len(items))
	for i, it := range items {
		body, err := json.Marshal(it)
		if err != nil {
			fail("marshal item %d: %v", i, err)
			return out
		}
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			fail("POST item %d: %v", i, err)
			return out
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		singles[i] = single{status: resp.StatusCode, body: b}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil {
				fail("item %d: unmarshal error body: %v", i, err)
				return out
			}
			singles[i].errMsg = e.Error
		}
	}

	// The batch over the same items, against the same instance (the
	// per-item cache reuse is part of what is being checked).
	batchBody, err := json.Marshal(struct {
		Items []item `json:"items"`
	}{items})
	if err != nil {
		fail("marshal batch: %v", err)
		return out
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		fail("POST batch: %v", err)
		return out
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("batch status %d: %s", resp.StatusCode, raw)
		return out
	}
	var br struct {
		Count  int `json:"count"`
		Errors int `json:"errors"`
		Items  []struct {
			Index    int             `json:"index"`
			Status   int             `json:"status"`
			Estimate json.RawMessage `json:"estimate"`
			Error    string          `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		fail("unmarshal batch response: %v", err)
		return out
	}
	if br.Count != len(items) || len(br.Items) != len(items) {
		fail("batch count %d / %d items, want %d", br.Count, len(br.Items), len(items))
		return out
	}
	wantErrs := 0
	for _, s := range singles {
		if s.status != http.StatusOK {
			wantErrs++
		}
	}
	if br.Errors != wantErrs {
		fail("batch errors = %d, want %d", br.Errors, wantErrs)
	}
	for i, bi := range br.Items {
		if bi.Index != i {
			fail("item %d: index %d out of order", i, bi.Index)
			continue
		}
		if bi.Status != singles[i].status {
			fail("item %d: status %d, single call got %d", i, bi.Status, singles[i].status)
			continue
		}
		if bi.Status == http.StatusOK {
			// The single call's body is the item's estimate plus the
			// encoder's trailing newline; everything else must match
			// byte for byte.
			if !bytes.Equal(append(bytes.Clone(bi.Estimate), '\n'), singles[i].body) {
				fail("item %d: batch estimate differs from the sequential /v1/estimate body", i)
			}
		} else if bi.Error != singles[i].errMsg {
			fail("item %d: error %q, single call said %q", i, bi.Error, singles[i].errMsg)
		}
	}
	return out
}
