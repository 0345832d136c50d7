package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"staticest"
	"staticest/internal/opt"
	"staticest/internal/probes"
	"staticest/internal/profile"
	"staticest/internal/server"
	"staticest/internal/suite"
)

const (
	// pgoRate is pgo-loop's arrival rate in requests per second, well
	// below what two cores sustain for this mix.
	pgoRate = 100
	// pgoBlock is the length of the block of requests the pgo-loop mix
	// repeats: profile runs at the positions pgoBlock/pgoBlockProfiles
	// apart, one optimize read halfway between the first two, uploads
	// everywhere else.
	pgoBlock, pgoBlockProfiles = 20, 2
	// serverMaxSteps is the server's default step budget per run, which
	// the library reference runs use too.
	serverMaxSteps = 50_000_000
)

// pgoProg is one suite program of pgo-loop with its library unit.
type pgoProg struct {
	p    *suite.Program
	unit *staticest.Unit
	fp   string
	plan *probes.Plan
	warm int // index into pairs of the program's cheapest input
	// accepted counts the uploads the current server accepted.
	accepted atomic.Int64
}

// pgoPair is one (program, input) with its sparse probe vector and the
// full-instrumentation reference run.
type pgoPair struct {
	prog  int
	input *suite.Input
	label string
	vec   *probes.Vector
	ref   *staticest.RunResult
}

// pgoLoop is an open loop at a fixed rate: mostly probe-vector uploads,
// with fixed minority shares of sparse profile runs and live inline
// plans, all over the 14 suite programs and their 4 inputs each.
type pgoLoop struct {
	seed    int64
	progs   []*pgoProg
	pairs   []*pgoPair
	uploads int // upload IDs handed out so far

	mu        sync.Mutex
	profFirst map[int][]byte // pair -> first profile reply
	profCount map[int]int
	optBodies [][]byte

	// Replay state, built by replaySetup: units, plans and live
	// aggregates of the benchmark's own, warmed like the server's.
	rp struct {
		units []*staticest.Unit
		plans []*probes.Plan
		accs  []*profile.Accumulator
	}
}

func newPGOLoop(seed int64, nproc int) (*pgoLoop, error) {
	w := &pgoLoop{seed: seed, profFirst: make(map[int][]byte),
		profCount: make(map[int]int)}
	for _, p := range suite.Programs() {
		u, err := p.Compile()
		if err != nil {
			return nil, err
		}
		pr := &pgoProg{p: p, unit: u, fp: staticest.Fingerprint([]byte(p.Source)), plan: u.PlanProbes()}
		w.progs = append(w.progs, pr)
		for i := range p.Inputs {
			w.pairs = append(w.pairs, &pgoPair{prog: len(w.progs) - 1, input: &p.Inputs[i],
				label: p.Name + "/" + p.Inputs[i].Name})
		}
	}
	// Both library runs of every pair: the sparse one yields the vector
	// fleet members upload, the full one the reference profile.
	errs := make([]error, len(w.pairs))
	parallel(len(w.pairs), nproc, func(_, i int) {
		pp := w.pairs[i]
		pr := w.progs[pp.prog]
		sparse, err := pr.unit.Run(staticest.RunOptions{Args: pp.input.Args, Stdin: pp.input.Stdin,
			MaxSteps: serverMaxSteps, Instrumentation: staticest.SparseInstrumentation, Plan: pr.plan})
		if err != nil {
			errs[i] = fmt.Errorf("%s: sparse run: %w", pp.label, err)
			return
		}
		pp.vec = sparse.Probes
		pp.ref, errs[i] = pr.unit.Run(staticest.RunOptions{Args: pp.input.Args, Stdin: pp.input.Stdin,
			MaxSteps: serverMaxSteps})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, pp := range w.pairs {
		pr := w.progs[pp.prog]
		if w.pairs[pr.warm].prog != pp.prog || pp.ref.Steps < w.pairs[pr.warm].ref.Steps {
			pr.warm = i
		}
	}
	return w, nil
}

// parallel runs fn(w, i) for i in 0..n-1 on workers goroutines, each
// taking the next i when it is free; w numbers the goroutine.
func parallel(n, workers int, fn func(w, i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				fn(w, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

func (w *pgoLoop) uploadCall(pair int, id string, withSource bool) (call, error) {
	pp := w.pairs[pair]
	pr := w.progs[pp.prog]
	req := server.IngestRequest{UploadID: id, Label: pp.label, Counts: pp.vec.Counts}
	if withSource {
		req.Program = pr.p.Name
	} else {
		req.Fingerprint = pr.fp
	}
	for _, e := range pp.vec.Escapes {
		req.Escapes = append(req.Escapes, server.IngestEscape{Func: e.Func, Block: e.Block})
	}
	return jsonCall("upload", "/v1/profiles/ingest", pair, req)
}

func (w *pgoLoop) profileCall(pair int) (call, error) {
	pp := w.pairs[pair]
	var req server.ProfileRequest
	req.Program, req.Input, req.Instrumentation = w.progs[pp.prog].p.Name, pp.input.Name, "sparse"
	return jsonCall("profile", "/v1/profile", pair, req)
}

func (w *pgoLoop) optimizeCall(pair int) (call, error) {
	var req server.OptimizeRequest
	req.Program = w.progs[w.pairs[pair].prog].p.Name
	req.FreqSource, req.Reports = opt.LiveSourceName, []string{"inline"}
	return jsonCall("optimize", "/v1/optimize", pair, req)
}

// warm registers every unit with an upload that ships its source (the
// server compiles it and plans its probes), then profiles the program's
// cheapest input, which lowers the unit to sparse bytecode.
func (w *pgoLoop) warm(cl *client, first bool) error {
	if first {
		w.mu.Lock()
		w.profFirst, w.profCount = make(map[int][]byte), make(map[int]int)
		w.mu.Unlock()
	}
	for i, pr := range w.progs {
		pr.accepted.Store(0)
		up, err := w.uploadCall(pr.warm, fmt.Sprintf("setup-%d", i), true)
		if err != nil {
			return err
		}
		if _, err := expectOK(cl, &up); err != nil {
			return err
		}
		pr.accepted.Add(1)
		prof, err := w.profileCall(pr.warm)
		if err != nil {
			return err
		}
		body, err := expectOK(cl, &prof)
		if err != nil {
			return err
		}
		if err := w.check(&prof, http.StatusOK, body); err != nil {
			return err
		}
	}
	return nil
}

func (w *pgoLoop) next(int) *call { return nil }

// schedule draws one phase's arrivals: a fixed count at pgoRate, evenly
// spaced, in repeated blocks with the mix's exact shares at fixed
// positions, and each kind's pairs in seeded order. Every phase of a run
// gets the same sequence, with fresh upload IDs, so that the traced and
// untraced phases see identical work.
//
// The fixed positions keep profile runs pgoBlock/pgoBlockProfiles
// requests apart (100 ms). With exponential gaps and one shuffle over
// the phase, profile runs clustered by chance: one seed drew 7 of them
// among 30 consecutive requests, the queue behind them set that run's
// p99 (240-280 ms against about 110 ms for other seeds), and p99_ms
// varied across ten seeds by a third of its median. Blocks shuffled
// within still let two long runs start 10 ms apart and share both worker
// slots, and p99_ms still varied across ten seeds by up to a quarter.
func (w *pgoLoop) schedule(d time.Duration) ([]arrival, error) {
	rng := rand.New(rand.NewSource(w.seed))
	n := int(pgoRate * d.Seconds())
	block := make([]string, pgoBlock)
	for i := range block {
		block[i] = "upload"
	}
	for k := 0; k < pgoBlockProfiles; k++ {
		block[k*pgoBlock/pgoBlockProfiles] = "profile"
	}
	block[pgoBlock/pgoBlockProfiles/2] = "optimize"
	var kinds []string
	for len(kinds) < n {
		kinds = append(kinds, block...)
	}
	sched := make([]arrival, 0, n)
	// Each kind cycles through every (program, input) pair in seeded
	// order, so a phase runs each input equally often and seeds differ in
	// order, not in how much interpreter work they ask for.
	cycles := make(map[string][]int)
	for i, kind := range kinds[:n] {
		if len(cycles[kind]) == 0 {
			cycles[kind] = rng.Perm(len(w.pairs))
		}
		pair := cycles[kind][0]
		cycles[kind] = cycles[kind][1:]
		var c call
		var err error
		switch kind {
		case "profile":
			c, err = w.profileCall(pair)
		case "optimize":
			c, err = w.optimizeCall(pair)
		default:
			w.uploads++
			c, err = w.uploadCall(pair, fmt.Sprintf("u%d", w.uploads), false)
		}
		if err != nil {
			return nil, err
		}
		sched = append(sched, arrival{at: d * time.Duration(i) / time.Duration(n), call: &c})
	}
	return sched, nil
}

func (w *pgoLoop) check(c *call, status int, body []byte) error {
	if status != http.StatusOK {
		return statusErr(c, status, body)
	}
	switch c.kind {
	case "upload":
		w.progs[w.pairs[c.item].prog].accepted.Add(1)
	case "profile":
		w.mu.Lock()
		defer w.mu.Unlock()
		w.profCount[c.item]++
		first, ok := w.profFirst[c.item]
		if !ok {
			w.profFirst[c.item] = bytes.Clone(body)
		} else if !bytes.Equal(body, first) {
			return fmt.Errorf("profile of %s differs from its first reply", w.pairs[c.item].label)
		}
	case "optimize":
		w.mu.Lock()
		w.optBodies = append(w.optBodies, bytes.Clone(body))
		w.mu.Unlock()
	}
	return nil
}

// checkCache: set-up registers every unit, and the 14 of them stay
// cached, so no timed request compiles.
func (w *pgoLoop) checkCache(hits, misses int64) error {
	if misses > 0 {
		return fmt.Errorf("pgo-loop: %d cache misses next to %d hits: a registered unit left the server's cache", misses, hits)
	}
	return nil
}

func (w *pgoLoop) verify(cl *client) (attempted, failed int, errs []error) {
	// Every profile reply equals its first, which must equal the reply a
	// full-instrumentation run implies.
	for i, body := range w.profFirst {
		pp := w.pairs[i]
		pr := w.progs[pp.prog]
		want := profileResponse(pr.unit, pr.fp, pp.input.Name, pp.ref, pp.ref.Profile, pr.plan)
		if err := checkProfile(body, want); err != nil {
			failed += w.profCount[i]
			errs = append(errs, fmt.Errorf("profile of %s: %w", pp.label, err))
		}
	}
	// Live plans are served from the live aggregate, never the fallback.
	for _, body := range w.optBodies {
		var rep server.OptimizeResponse
		err := json.Unmarshal(body, &rep)
		if err == nil && (rep.FreqSource != opt.LiveSourceName || rep.Fallback != "" || rep.Uploads < 1 || rep.Inline == nil) {
			err = fmt.Errorf("freq_source %q fallback %q uploads %d: not a live inline plan",
				rep.FreqSource, rep.Fallback, rep.Uploads)
		}
		if err != nil {
			failed++
			errs = append(errs, fmt.Errorf("optimize of %s: %w", rep.Program, err))
		}
	}
	// Each unit's live aggregate counts every accepted upload and agrees
	// with the library's aggregate of the same uploads.
	byLabel := make(map[string]*profile.Profile)
	for _, pp := range w.pairs {
		byLabel[pp.label] = pp.ref.Profile
	}
	for _, pr := range w.progs {
		attempted++
		c := call{kind: "stats", method: http.MethodGet,
			path: "/v1/profiles/stats?agreement=1&fingerprint=" + url.QueryEscape(pr.fp)}
		body, err := expectOK(cl, &c)
		var rep server.StatsResponse
		if err == nil {
			err = json.Unmarshal(body, &rep)
		}
		if err == nil && len(rep.Units) != 1 {
			err = fmt.Errorf("stats list %d units, want 1", len(rep.Units))
		}
		if err == nil {
			err = checkAgreement(&rep.Units[0], int(pr.accepted.Load()), pr.unit, byLabel)
		}
		if err != nil {
			failed++
			errs = append(errs, fmt.Errorf("stats of %s: %w", pr.p.Name, err))
		}
	}
	return attempted, failed, errs
}

// vectorOf converts an upload's wire vector as the server does.
func vectorOf(req *server.IngestRequest) *probes.Vector {
	vec := &probes.Vector{Counts: req.Counts}
	for _, e := range req.Escapes {
		vec.Escapes = append(vec.Escapes, probes.Escape{Func: e.Func, Block: e.Block})
	}
	return vec
}

// prepareReplay builds the replay's own units, plans and aggregates, in
// the state the server is in after set-up: units lowered, and each
// aggregate holding the registering upload.
func (w *pgoLoop) prepareReplay() error {
	for _, pr := range w.progs {
		u, err := pr.p.Compile()
		if err != nil {
			return err
		}
		plan := u.PlanProbes()
		pp := w.pairs[pr.warm]
		if _, err := u.Run(staticest.RunOptions{Args: pp.input.Args, Stdin: pp.input.Stdin,
			MaxSteps: serverMaxSteps, Instrumentation: staticest.SparseInstrumentation, Plan: plan}); err != nil {
			return err
		}
		p, err := probes.Reconstruct(plan, pp.vec, nil)
		if err != nil {
			return err
		}
		acc := profile.NewAccumulator()
		if _, err := acc.Add(p); err != nil {
			return err
		}
		w.rp.units = append(w.rp.units, u)
		w.rp.plans = append(w.rp.plans, plan)
		w.rp.accs = append(w.rp.accs, acc)
	}
	return nil
}

// replay re-executes an upload (decode, reconstruct, merge, encode), a
// sparse profile run (decode, fingerprint, run, reconstruct, encode) or a
// live inline plan (decode, fingerprint, plan, encode).
func (w *pgoLoop) replay(r *replayer, c *call, parent int64) {
	pp := w.pairs[c.item]
	u, plan := w.rp.units[pp.prog], w.rp.plans[pp.prog]
	fp := w.progs[pp.prog].fp
	switch c.kind {
	case "upload":
		var req server.IngestRequest
		if r.decode(parent, c.body, &req) != nil {
			return
		}
		p, err := r.reconstruct(parent, plan, vectorOf(&req))
		if err != nil {
			return
		}
		p.Label = req.Label
		n, err := r.merge(parent, w.rp.accs[pp.prog], p)
		if err != nil {
			return
		}
		r.encode(parent, &server.IngestResponse{Fingerprint: fp, Program: u.Name, Uploads: n, Epoch: uint64(n)})
	case "profile":
		var req server.ProfileRequest
		if r.decode(parent, c.body, &req) != nil {
			return
		}
		r.fingerprint(parent, []byte(w.progs[pp.prog].p.Source))
		res, err := r.run(parent, u, plan, pp.input.Args, pp.input.Stdin, false)
		if err != nil {
			return
		}
		prof, err := r.reconstruct(parent, plan, res.Probes)
		if err != nil {
			return
		}
		r.encode(parent, profileResponse(u, fp, pp.input.Name, res, prof, plan))
	case "optimize":
		var req server.OptimizeRequest
		if r.decode(parent, c.body, &req) != nil {
			return
		}
		r.fingerprint(parent, []byte(w.progs[pp.prog].p.Source))
		snap, _ := w.rp.accs[pp.prog].Snapshot() // the bool reports a swap
		if snap == nil {
			return
		}
		src := opt.ProfileSource(u.CFG, snap.Profile, opt.LiveSourceName)
		plan := r.planInline(parent, u, src, req.Budget)
		rep := &server.InlineReport{Budget: plan.Budget, Eligible: len(plan.Eligible), CostUsed: plan.CostUsed}
		for i, d := range plan.Chosen {
			rep.Chosen = append(rep.Chosen, server.InlineDecisionReport{Rank: i + 1, Site: d.Site,
				Caller: u.Call.FuncName(d.Caller), Callee: u.Call.FuncName(d.Callee), Freq: d.Freq, Cost: d.Cost})
		}
		r.encode(parent, &server.OptimizeResponse{Program: u.Name, Fingerprint: fp,
			FreqSource: opt.LiveSourceName, Uploads: snap.Uploads, Inline: rep})
	}
}

// replaySetup replays each program's set-up pair on fresh state: the
// registering upload (decode, fingerprint, compile, plan, reconstruct,
// merge, encode) and the first profile run, which lowers the unit to
// bytecode. Then it prepares the state the timed requests replay
// against.
func (w *pgoLoop) replaySetup(r *replayer, reps int) ([]span, error) {
	var out []span
	for i, pr := range w.progs {
		pp := w.pairs[pr.warm]
		up, err := w.uploadCall(pr.warm, fmt.Sprintf("setup-%d", i), true)
		if err != nil {
			continue
		}
		prof, err := w.profileCall(pr.warm)
		if err != nil {
			continue
		}
		root := r.tr.newID()
		out = append(out, r.best("setup-"+pr.p.Name, root, reps, func() {
			var req server.IngestRequest
			if r.decode(root, up.body, &req) != nil {
				return
			}
			src := []byte(pr.p.Source)
			fp := r.fingerprint(root, src)
			u, err := r.compile(root, pr.p.Name+".c", src)
			if err != nil {
				return
			}
			plan := r.plan(root, u)
			p, err := r.reconstruct(root, plan, vectorOf(&req))
			if err != nil {
				return
			}
			p.Label = req.Label
			n, err := r.merge(root, profile.NewAccumulator(), p)
			if err != nil {
				return
			}
			r.encode(root, &server.IngestResponse{Fingerprint: fp, Program: u.Name, Uploads: n, Epoch: uint64(n)})

			var preq server.ProfileRequest
			if r.decode(root, prof.body, &preq) != nil {
				return
			}
			r.fingerprint(root, src)
			res, err := r.run(root, u, plan, pp.input.Args, pp.input.Stdin, true)
			if err != nil {
				return
			}
			rp, err := r.reconstruct(root, plan, res.Probes)
			if err != nil {
				return
			}
			r.encode(root, profileResponse(u, fp, pp.input.Name, res, rp, plan))
		})...)
	}
	return out, w.prepareReplay()
}

func (w *pgoLoop) callers(nproc int) int { return nproc }
