package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/eval"
	"staticest/internal/probes"
	"staticest/internal/profile"
	"staticest/internal/server"
)

// This file holds the references the server's replies are checked
// against. Each is computed by the library from the same inputs, never
// by the server, and compared after decoding, so the check is about the
// values and not the byte layout of the JSON.

// topSites is the call-site ranking length an estimate request gets when
// it does not set "top".
const topSites = 10

// estimateResponse is the estimate reply for a compiled unit: every
// function's invocation and block-frequency estimates under the loop,
// smart and markov estimators, and the direct call sites ranked by the
// smart global frequency, hottest first, ties by site ID, top 10.
func estimateResponse(u *staticest.Unit, est *core.Estimates, fp string) *server.EstimateResponse {
	resp := &server.EstimateResponse{Program: u.Name, Fingerprint: fp}
	for fi, fd := range u.Sem.Funcs {
		resp.Functions = append(resp.Functions, server.FuncEstimate{
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
	var sites []server.CallSiteRank
	for _, cs := range u.Sem.CallSites {
		if cs.Indirect() {
			continue
		}
		sites = append(sites, server.CallSiteRank{
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
	if len(sites) > topSites {
		sites = sites[:topSites]
	}
	for i := range sites {
		sites[i].Rank = i + 1
	}
	resp.CallSites = sites
	return resp
}

// expectEstimate compiles src as name with the library and returns the
// estimate reply the server owes for it.
func expectEstimate(name string, src []byte) (*server.EstimateResponse, error) {
	u, err := staticest.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return estimateResponse(u, u.Estimate(), staticest.Fingerprint(src)), nil
}

// checkEstimate checks one estimate reply body against the library's.
func checkEstimate(body []byte, want *server.EstimateResponse) error {
	return sameJSON(body, want, &server.EstimateResponse{})
}

// profileResponse is the profile reply for one sparse run of input on u:
// the run's exit code, steps and output, the counts of prof, and the
// summary of plan.
func profileResponse(u *staticest.Unit, fp, input string, res *staticest.RunResult,
	prof *profile.Profile, plan *probes.Plan) *server.ProfileResponse {
	resp := &server.ProfileResponse{
		Program:         u.Name,
		Fingerprint:     fp,
		Input:           input,
		Instrumentation: "sparse",
		ExitCode:        res.ExitCode,
		Steps:           res.Steps,
		Output:          string(res.Output),
		Cycles:          prof.Cycles,
		Probes: &server.ProbeSummary{
			Counters:     plan.NumProbes,
			ArcsTotal:    plan.TotalArcs,
			ArcsProbed:   plan.ProbedArcs,
			ArcReduction: plan.ArcReduction(),
		},
	}
	for fi, fd := range u.Sem.Funcs {
		resp.Functions = append(resp.Functions, server.FuncProfile{
			Name:        fd.Name(),
			Calls:       prof.FuncCalls[fi],
			BlockCounts: prof.BlockCounts[fi],
		})
	}
	return resp
}

// checkProfile checks one sparse profile reply body against the reply a
// full-instrumentation library run implies.
func checkProfile(body []byte, want *server.ProfileResponse) error {
	return sameJSON(body, want, &server.ProfileResponse{})
}

// checkAgreement checks a live unit's stats row against the library:
// its upload count, and its agreement rows against eval.AgreementRows
// over profile.Aggregate of the same uploads in the server's merge
// order. byLabel maps an upload label to the profile that upload
// carried.
func checkAgreement(got *server.StatsUnit, wantUploads int, u *staticest.Unit,
	byLabel map[string]*profile.Profile) error {
	if got.Uploads != wantUploads {
		return fmt.Errorf("%s: server counts %d uploads, %d were accepted", u.Name, got.Uploads, wantUploads)
	}
	profs := make([]*profile.Profile, len(got.MergeOrder))
	for i, label := range got.MergeOrder {
		p, ok := byLabel[label]
		if !ok {
			return fmt.Errorf("%s: merge order names unknown upload label %q", u.Name, label)
		}
		profs[i] = p
	}
	agg, err := profile.Aggregate(profs)
	if err != nil {
		return fmt.Errorf("%s: aggregating the uploads: %w", u.Name, err)
	}
	rows, err := eval.AgreementRows(u.Name, u, u.Estimate(), agg)
	if err != nil {
		return fmt.Errorf("%s: agreement rows: %w", u.Name, err)
	}
	want := make(map[string]server.AgreementRow)
	for _, r := range rows {
		want[r.Source] = server.AgreementRow{Source: r.Source, InlineOverlap: r.InlineOverlap,
			InlineTau: r.InlineTau, SpillTau: r.SpillTau, FallThrough: r.FallThrough}
	}
	if len(got.Agreement) == 0 {
		return fmt.Errorf("%s: stats carry no agreement rows", u.Name)
	}
	for _, row := range got.Agreement {
		w, ok := want[row.Source]
		if !ok {
			return fmt.Errorf("%s: agreement row for unknown source %q", u.Name, row.Source)
		}
		if err := diffValues(w, row); err != nil {
			return fmt.Errorf("%s: agreement row %s: %w", u.Name, row.Source, err)
		}
	}
	return nil
}

// sameJSON decodes got into into and compares it with want.
func sameJSON(got []byte, want, into any) error {
	if err := json.Unmarshal(got, into); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return diffValues(want, into)
}

// diffValues compares two values after both pass through the same JSON
// encoding, and names the first difference.
func diffValues(want, got any) error {
	g, err := canonical(got)
	if err != nil {
		return err
	}
	w, err := canonical(want)
	if err != nil {
		return err
	}
	if d := firstDiff(w, g, "$"); d != "" {
		return fmt.Errorf("reply differs from the library: %s", d)
	}
	return nil
}

func canonical(v any) (any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// firstDiff returns the path and values of the first difference between
// two decoded JSON values, or "" when they are equal.
func firstDiff(want, got any, path string) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: got %v, want an object", path, got)
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := firstDiff(w[k], g[k], path+"."+k); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: got %v, want %d elements", path, got, len(w))
		}
		for i := range w {
			if d := firstDiff(w[i], g[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: got %v, want %v", path, got, want)
		}
	}
	return ""
}

// encodeIndented encodes v the way the server writes a reply body: two
// space indent and a trailing newline.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// decodeStrict decodes a request body the way the server does: unknown
// fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
