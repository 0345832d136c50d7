// Command perfbench is the repository's benchmark. It starts the
// production estimation server (internal/server, default Config) inside
// its own process behind a loopback listener, drives one seeded workload
// at it over at most nproc keep-alive connections, verifies every output
// against the library, and prints the end-to-end metrics. With --trace 1
// it instead prints per-layer metrics: it runs the workload once
// untraced and once with spans around each client call and each handler
// call, then replays a fixed sample of the traced requests through each
// layer's public functions, one call at a time.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload estimate-hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for
// the workloads, the metrics, their units, and what each layer metric
// should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"staticest/internal/obs"
)

const (
	// setups is how many times a run builds and warms a server; setup_s
	// is their median, and the first one serves the timed phases.
	setups = 11
	// replayReps is how many times each sampled request is replayed; the
	// fastest repetition is kept.
	replayReps = 3
)

// replaySample is how many traced requests each workload replays.
var replaySample = map[string]int{"estimate-hit": 400, "batch-cold": 16, "pgo-loop": 300}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds (a traced run splits them between its two phases)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "JSONL span output of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", o.workload, o.seed)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	nproc := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	wl, err := newWorkload(o.workload, o.seed, nproc)
	if err != nil {
		return nil, err
	}
	conns := wl.callers(nproc)
	phaseLen := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		phaseLen /= 2
	}
	// Everything a timed phase sends is allocated here, before the heap
	// baseline: inputs and open-loop schedules.
	var scheds [2][]arrival
	for i := 0; i <= o.trace; i++ {
		if scheds[i], err = wl.schedule(phaseLen); err != nil {
			return nil, err
		}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d conns=%d\n", o.workload, o.seed, o.seconds, o.trace, conns)

	// The measured server is the first one built, so the heap baseline
	// holds no server. Its set-up is the first of the set-ups setup_s
	// takes the median of; the others run after verification.
	runtime.GC()
	heap0 := liveHeap()
	srv, cl, setup1, err := setUp(wl, conns, true)
	if err != nil {
		return nil, fmt.Errorf("set-up 1: %w", err)
	}
	defer func() {
		if srv != nil {
			cl.close()
			srv.stop()
		}
	}()

	before := counters(srv.srv.Observer())
	ph := runPhase(wl, cl, nil, phaseLen, scheds[0], conns)
	if err := checkCache(wl, before, counters(srv.srv.Observer())); err != nil {
		return nil, err
	}
	lat := summarize(ph.latencies)
	// The latency samples are the benchmark's own bookkeeping: drop them
	// before measuring the heap the server retained.
	ph.latencies = nil
	runtime.GC()
	retained := float64(liveHeap()) - float64(heap0)

	res := &result{}
	var failures []error
	account := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		failures = append(failures, p.errs...)
	}
	account(ph)

	var tph *phase
	var tr *tracer
	var hits, misses, shed, uploads, rejects int64
	if o.trace == 1 {
		tr = newTracer()
		tsrv, err := serveTraced(srv.srv, tr)
		if err != nil {
			return nil, err
		}
		tcl := newClient(tsrv.addr, conns)
		before := counters(srv.srv.Observer())
		tph = runPhase(wl, tcl, tr, phaseLen, scheds[1], conns)
		after := counters(srv.srv.Observer())
		tcl.close()
		if err := tsrv.stop(); err != nil {
			return nil, err
		}
		if err := checkCache(wl, before, after); err != nil {
			return nil, err
		}
		account(tph)
		hits, misses, shed = after[0]-before[0], after[1]-before[1], after[2]-before[2]
		uploads, rejects = after[3]-before[3], after[4]-before[4]
	}

	att, failed, errs := wl.verify(cl)
	res.Attempted += att
	res.Failed += failed
	failures = append(failures, errs...)
	res.Correct = res.Failed == 0
	for i, err := range failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: failure: %v\n", err)
	}

	if o.trace == 0 {
		// The remaining set-ups, each on a fresh server that is stopped
		// before the next one is built.
		cl.close()
		err := srv.stop()
		srv = nil
		if err != nil {
			return nil, err
		}
		setupS := []float64{setup1}
		for k := 1; k < setups; k++ {
			s, c, secs, err := setUp(wl, conns, false)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", k+1, err)
			}
			c.close()
			if err := s.stop(); err != nil {
				return nil, err
			}
			setupS = append(setupS, secs)
		}
		m := map[string]metric{
			"setup_s":          {median(setupS), "s"},
			"rps":              {float64(ph.completed) / ph.elapsed.Seconds(), "1/s"},
			"p50_ms":           {lat.P50, "ms"},
			"p99_ms":           {lat.P99, "ms"},
			"cpu_ms_per_req":   {perReq(float64(ph.use.cpu)/1e6, ph.completed), "ms"},
			"alloc_kb_per_req": {perReq(float64(ph.use.allocs)/1e3, ph.completed), "kB"},
			"retained_mb":      {retained / 1e6, "MB"},
		}
		res.Metrics = m
		fmt.Printf("set-ups (s):  %s\n", floats(setupS))
		fmt.Printf("latency:      %d samples, %d beyond the p99 of %.4g ms", lat.N, lat.Beyond99, lat.P99)
		if !supported(lat.N, 0.99) {
			fmt.Printf(" (too few: p99 needs %d)", minBeyond)
		}
		fmt.Println()
		fmt.Printf("fail_share:   %g (%d of %d)\n", share(res.Failed, res.Attempted), res.Failed, res.Attempted)
		printMetrics(m)
		return res, nil
	}

	spans, table, err := replay(o, wl, tr, tph)
	if err != nil {
		return nil, err
	}
	m := table.metrics
	reused := 0
	for _, t := range tph.traced {
		if t.reused {
			reused++
		}
	}
	m["transport.conn_reuse"] = metric{share(reused, len(tph.traced)), "ratio"}
	m["server.cache_hit_ratio"] = metric{share64(hits, hits+misses), "ratio"}
	m["server.shed_share"] = metric{share(int(shed), tph.attempted), "ratio"}
	m["ingest.reject_share"] = metric{share64(rejects, uploads+rejects), "ratio"}
	m["runtime.gc_cpu_share"] = metric{ph.use.gcShare(), "ratio"}
	m["runtime.gc_pause_p99_ms"] = metric{ph.use.pauseQuantile(0.99), "ms"}
	var lagP50, lagP99 float64
	if len(ph.lags) > 0 {
		lags := summarize(ph.lags)
		lagP50, lagP99 = lags.P50, lags.P99
	}
	m["loadgen.lag_p50_ms"] = metric{lagP50, "ms"}
	m["loadgen.lag_p99_ms"] = metric{lagP99, "ms"}
	untraced := perReq(float64(ph.use.cpu), ph.completed)
	traced := perReq(float64(tph.use.cpu), tph.completed)
	m["bench.trace_overhead_pct"] = metric{100 * (traced/untraced - 1), "%"}
	res.Metrics = m

	if err := writeJSONL(o.spans, spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans:        %d written to %s\n", len(spans), o.spans)
	fmt.Print(table.text)
	printMetrics(m)
	return res, nil
}

// setUp builds a server, serves it on loopback and warms it, and
// returns it with its client and how many seconds that took.
func setUp(wl workload, conns int, first bool) (*liveServer, *client, float64, error) {
	runtime.GC()
	start := time.Now()
	srv, err := startServer()
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(srv.addr, conns)
	if err := wl.warm(cl, first); err != nil {
		cl.close()
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, cl, time.Since(start).Seconds(), nil
}

// checkCache reads the server's cache counters over a timed phase and
// checks them against the workload's rule.
func checkCache(wl workload, before, after [5]int64) error {
	if err := wl.checkCache(after[0]-before[0], after[1]-before[1]); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	return nil
}

// worker is one connection's state in a timed phase.
type worker struct {
	buf       bytes.Buffer
	latencies []time.Duration
	traced    []tracedReq
	attempted int
	completed int
	failed    int
	errs      []error
}

// tracedReq is one request of the traced phase.
type tracedReq struct {
	span   span // the client call, named "transport"
	call   *call
	reused bool
}

// phase is one timed phase's outcome.
type phase struct {
	elapsed   time.Duration // from the start until the last reply
	attempted int
	completed int
	failed    int
	errs      []error
	latencies []time.Duration
	lags      []time.Duration
	use       usage
	traced    []tracedReq
}

// runPhase drives the workload for d on conns connections: the closed
// loop when sched is nil, else the open loop over sched. With tr set,
// each client call is a "transport" span carrying its span ID as the
// request ID.
func runPhase(wl workload, cl *client, tr *tracer, d time.Duration, sched []arrival, conns int) *phase {
	ws := make([]worker, conns)
	exchange := func(i int, c *call) time.Time {
		w := &ws[i]
		var sp span
		var reused bool
		var reusedp *bool
		if tr != nil {
			sp = span{ID: tr.newID(), Name: "transport", Start: tr.now()}
			sp.Req, reusedp = clientReqID(sp.ID), &reused
		}
		status, err := cl.do(c, &w.buf, sp.Req, reusedp)
		done := time.Now()
		if tr != nil {
			sp.End = tr.now()
			w.traced = append(w.traced, tracedReq{span: sp, call: c, reused: reused})
		}
		w.attempted++
		if err == nil {
			w.completed++
			err = wl.check(c, status, w.buf.Bytes())
		}
		if err != nil {
			w.failed++
			if len(w.errs) < 5 {
				w.errs = append(w.errs, err)
			}
		}
		return done
	}

	p := &phase{}
	u0 := readUsage()
	start := time.Now()
	if sched == nil {
		runClosed(start.Add(d), len(ws), func(i int) {
			t0 := time.Now()
			ws[i].latencies = append(ws[i].latencies, exchange(i, wl.next(i)).Sub(t0))
		})
	} else {
		for _, r := range runOpen(realClock{}, sched, len(ws), func(i int, a *arrival) time.Time {
			return exchange(i, a.call)
		}) {
			p.latencies = append(p.latencies, r.latency)
			p.lags = append(p.lags, r.lag)
		}
	}
	p.elapsed = time.Since(start)
	p.use = readUsage().since(u0)
	for i := range ws {
		w := &ws[i]
		p.attempted += w.attempted
		p.completed += w.completed
		p.failed += w.failed
		p.errs = append(p.errs, w.errs...)
		if sched == nil {
			p.latencies = append(p.latencies, w.latencies...)
		}
		p.traced = append(p.traced, w.traced...)
	}
	return p
}

// counters reads the server's cache hits and misses, shed requests,
// accepted uploads and rejected uploads.
func counters(o *obs.Observer) [5]int64 {
	var rejects int64
	for _, reason := range []string{"unknown_fingerprint", "invalid", "shape", "duplicate"} {
		rejects += o.Counter(obs.Labels("ingest_rejects_total", "reason", reason)).Value()
	}
	return [5]int64{
		o.Counter("server_cache_hit").Value(),
		o.Counter("server_cache_miss").Value(),
		o.Counter("server_shed_total").Value(),
		o.Counter("ingest_uploads_total").Value(),
		rejects,
	}
}

// layerTable is the traced run's per-layer breakdown.
type layerTable struct {
	metrics map[string]metric
	text    string
}

// layerMetrics maps each per-layer metric to the span it reads: its self
// time per call in µs (or ms), or its work count per call.
var layerMetrics = []struct {
	metric, span, unit string
	setup              bool // read from the set-up replay
	work               bool // work count per call instead of self time
}{
	{"transport.self_us", "transport", "us", false, false},
	{"server.self_us", "server", "us", false, false},
	{"server.decode_us", "server.decode", "us", false, false},
	{"server.encode_us", "server.encode", "us", false, false},
	{"staticest.fingerprint_us", "staticest.fingerprint", "us", false, false},
	{"clex.lex_us", "clex.lex", "us", false, false},
	{"clex.tokens", "clex.lex", "count", false, true},
	{"cparse.parse_us", "cparse.parse", "us", false, false},
	{"sem.analyze_us", "sem.analyze", "us", false, false},
	{"cfg.build_us", "cfg.build", "us", false, false},
	{"cfg.blocks", "cfg.build", "count", false, true},
	{"callgraph.build_us", "callgraph.build", "us", false, false},
	{"core.predict_us", "core.predict", "us", false, false},
	{"core.markov_intra_us", "core.markov_intra", "us", false, false},
	{"core.estimate_us", "core.estimate", "us", false, false},
	{"bc.compile_us", "bc.compile", "us", true, false},
	{"bc.instrs", "bc.compile", "count", true, true},
	{"interp.run_ms", "interp.run", "ms", false, false},
	{"interp.steps", "interp.run", "count", false, true},
	{"probes.plan_us", "probes.plan", "us", true, false},
	{"probes.reconstruct_us", "probes.reconstruct", "us", false, false},
	{"ingest.merge_us", "ingest.merge", "us", false, false},
	{"opt.plan_inline_us", "opt.plan_inline", "us", false, false},
}

// replay replays a seeded sample of the traced phase's requests and the
// workload's set-up, and turns the spans into per-layer metrics.
func replay(o options, wl workload, tr *tracer, tph *phase) ([]span, *layerTable, error) {
	handler := make(map[int64]span)
	for _, s := range tr.spans {
		handler[s.Parent] = s
	}
	rng := rand.New(rand.NewSource(o.seed))
	order := rng.Perm(len(tph.traced))
	if n := replaySample[o.workload]; len(order) > n {
		order = order[:n]
	}
	r := &replayer{tr: tr}
	setupSpans, err := wl.replaySetup(r, replayReps)
	if err != nil {
		return nil, nil, fmt.Errorf("replaying set-up: %w", err)
	}
	var sampled []span
	for _, i := range order {
		t := tph.traced[i]
		h, ok := handler[t.span.ID]
		if !ok {
			continue
		}
		sampled = append(sampled, t.span, h)
		sampled = append(sampled, r.best(t.span.Req, h.ID, replayReps, func() { wl.replay(r, t.call, h.ID) })...)
	}

	reqStats, setupStats := selfTimes(sampled), selfTimes(setupSpans)
	m := make(map[string]metric)
	for _, lm := range layerMetrics {
		st := reqStats[lm.span]
		if lm.setup {
			st = setupStats[lm.span]
		}
		var v float64
		if st != nil && st.Calls > 0 {
			if st.Self < 0 {
				return nil, nil, fmt.Errorf("%s: negative self time (%d ns over %d calls): the replay did more work than the server", lm.span, st.Self, st.Calls)
			}
			switch {
			case lm.work:
				v = float64(st.Work) / float64(st.Calls)
			case lm.unit == "ms":
				v = float64(st.Self) / float64(st.Calls) / 1e6
			default:
				v = float64(st.Self) / float64(st.Calls) / 1e3
			}
		}
		m[lm.metric] = metric{v, lm.unit}
	}
	var nsPerStep float64
	if st := reqStats["interp.run"]; st != nil && st.Work > 0 {
		nsPerStep = float64(st.Self) / float64(st.Work)
	}
	m["interp.ns_per_step"] = metric{nsPerStep, "ns"}

	// Where a sampled request's time goes: the self times of its spans
	// partition its client call.
	nReq := 0
	if st := reqStats["transport"]; st != nil {
		nReq = st.Calls
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per request, over %d replayed requests (self time; rows sum to the client call):\n", nReq)
	fmt.Fprintf(&b, "  %-24s %10s %12s %12s %7s %6s\n", "span", "calls/req", "us/call", "us/req", "share", "neg")
	names := make([]string, 0, len(reqStats))
	var total int64
	for name, st := range reqStats {
		names = append(names, name)
		total += st.Self
	}
	sort.Slice(names, func(a, c int) bool { return reqStats[names[a]].Self > reqStats[names[c]].Self })
	for _, name := range names {
		st := reqStats[name]
		fmt.Fprintf(&b, "  %-24s %10.2f %12.2f %12.2f %6.1f%% %6d\n", name,
			float64(st.Calls)/float64(max(nReq, 1)), float64(st.Self)/float64(st.Calls)/1e3,
			float64(st.Self)/float64(max(nReq, 1))/1e3, 100*share64(st.Self, total), st.Neg)
	}
	if len(setupStats) > 0 {
		fmt.Fprintf(&b, "set-up layers, per call over %d replayed set-up requests:\n", len(setupSpans))
		for _, name := range []string{"bc.compile", "probes.plan"} {
			if st := setupStats[name]; st != nil {
				fmt.Fprintf(&b, "  %-24s %10d calls %12.2f us/call\n", name, st.Calls, float64(st.Self)/float64(st.Calls)/1e3)
			}
		}
	}

	all := append(append([]span(nil), tr.spans...), setupSpans...)
	for _, t := range tph.traced {
		all = append(all, t.span)
	}
	for _, s := range sampled {
		if s.Name != "transport" && s.Name != "server" {
			all = append(all, s)
		}
	}
	return all, &layerTable{metrics: m, text: b.String()}, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-26s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func perReq(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func share(a, b int) float64 { return share64(int64(a), int64(b)) }

func share64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
