package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"staticest"
	"staticest/internal/eval"
	"staticest/internal/probes"
	"staticest/internal/server"
	"staticest/internal/suite"
)

// ingest runs the fleet: n uploads of the program's sparse probe
// vectors, with a convergence report at each checkpoint. It fails when
// the final agreement delta exceeds tol (tol < 0: report only).
func (d *driver) ingest(program string, n int, tol float64) error {
	p, err := suite.ByName(program)
	if err != nil {
		return err
	}
	u, err := p.CompileCached()
	if err != nil {
		return err
	}
	fp := staticest.Fingerprint([]byte(p.Source))
	plan := u.PlanProbes()

	// Each fleet member re-runs one of the program's inputs under sparse
	// instrumentation; precompute the vector per input once.
	vectors := make([]*probes.Vector, len(p.Inputs))
	for i, in := range p.Inputs {
		res, err := u.Run(staticest.RunOptions{
			Args:            in.Args,
			Stdin:           in.Stdin,
			Instrumentation: staticest.SparseInstrumentation,
			Plan:            plan,
		})
		if err != nil {
			return fmt.Errorf("%s/%s: sparse run: %v", p.Name, in.Name, err)
		}
		vectors[i] = res.Probes
	}

	// The offline reference: the eval harness's agreement rows from
	// full-instrumentation profiles of every input.
	data, err := eval.Load(p)
	if err != nil {
		return err
	}
	rows, err := eval.OptProgram(data)
	if err != nil {
		return err
	}
	offline := map[string]eval.OptRow{}
	for _, row := range rows {
		offline[row.Source] = row
	}

	fmt.Printf("loadtest: mode=ingest addr=%s program=%s fp=%.12s inputs=%d probes=%d uploads=%d workers=%d rps=%s\n",
		d.base, p.Name, fp, len(p.Inputs), plan.NumProbes, n, d.jobs, rateString(d.rps))

	// upload ships vector i%len(inputs) as member i; the registering
	// upload also names the program.
	upload := func(i int, register bool) (bool, error) {
		vec := vectors[i%len(vectors)]
		req := server.IngestRequest{
			Fingerprint: fp,
			UploadID:    fmt.Sprintf("fleet-%05d", i),
			Label:       p.Inputs[i%len(p.Inputs)].Name,
			Counts:      vec.Counts,
		}
		for _, e := range vec.Escapes {
			req.Escapes = append(req.Escapes, server.IngestEscape{Func: e.Func, Block: e.Block})
		}
		if register {
			req.Program = p.Name
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return false, err
		}
		return d.post("/v1/profiles/ingest", body, req.UploadID)
	}

	// First contact registers the unit; everyone after uploads against
	// the bare fingerprint.
	d.start = time.Now()
	ok, err := upload(0, true)
	if err != nil {
		return fmt.Errorf("registering upload: %w", err)
	}
	if !ok {
		return fmt.Errorf("registering upload was rejected")
	}

	fmt.Printf("%8s  %-8s %22s %22s %10s\n",
		"uploads", "source", "inline_top10 live/off", "spill_tau live/off", "max|Δ|")
	var maxDelta float64
	done := 1
	for _, stop := range checkpoints(n) {
		var next atomic.Int64
		next.Store(int64(done))
		err := d.fanOut(nil, func(int) (func() error, bool) {
			i := int(next.Add(1) - 1)
			if i >= stop {
				return nil, false
			}
			return func() error {
				_, err := upload(i, false)
				return err
			}, true
		})
		if err != nil {
			return err
		}
		done = stop
		if maxDelta, err = d.report(fp, done, offline); err != nil {
			return err
		}
	}

	fmt.Printf("loadtest: %d uploads done; final max agreement delta %.3f\n", done, maxDelta)
	if tol >= 0 && maxDelta > tol {
		return fmt.Errorf("final agreement delta %.3f exceeds tolerance %.3f — live aggregate did not converge", maxDelta, tol)
	}
	return nil
}

// report queries the live agreement rows and prints each source next to
// its offline value, returning the worst |live - offline| over the
// inline-overlap and spill-tau columns.
func (d *driver) report(fp string, uploads int, offline map[string]eval.OptRow) (float64, error) {
	body, err := d.get("/v1/profiles/stats?fingerprint=" + fp + "&agreement=1")
	if err != nil {
		return 0, err
	}
	var sr server.StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return 0, err
	}
	if len(sr.Units) != 1 {
		return 0, fmt.Errorf("stats returned %d units, want 1", len(sr.Units))
	}

	rows := append([]server.AgreementRow(nil), sr.Units[0].Agreement...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Source < rows[j].Source })
	var maxDelta float64
	for _, row := range rows {
		off, ok := offline[row.Source]
		if !ok {
			continue
		}
		dOverlap := math.Abs(row.InlineOverlap - off.InlineOverlap)
		dSpill := math.Abs(row.SpillTau - off.SpillTau)
		maxDelta = math.Max(maxDelta, math.Max(dOverlap, dSpill))
		fmt.Printf("%8d  %-8s %10.3f /%9.3f %10.3f /%9.3f %10.3f\n",
			uploads, row.Source, row.InlineOverlap, off.InlineOverlap,
			row.SpillTau, off.SpillTau, math.Max(dOverlap, dSpill))
	}
	return maxDelta, nil
}

// checkpoints returns log-spaced upload counts ending at n.
func checkpoints(n int) []int {
	var out []int
	for _, c := range []int{2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000} {
		if c < n {
			out = append(out, c)
		}
	}
	return append(out, n)
}
