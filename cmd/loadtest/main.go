// Command loadtest drives a running serve instance with real HTTP
// traffic and reports the client-observed latency distribution. It is
// the load half of the serving story, in two modes:
//
//   - estimate (the default) replays generated programs from
//     internal/gen at a target request rate for -duration: a hot set of
//     -hot programs the server keeps cached (the -hit fraction of
//     requests) and a stream of unique cold programs (each one a
//     compile). -batch switches from /v1/estimate to /v1/batch with
//     that many items per request.
//   - ingest simulates a fleet of instrumented deployments closing the
//     PGO loop: it compiles one benchmark-suite program (-program)
//     locally, produces the sparse probe vector of each of its inputs,
//     and sends -n uploads, cycling through the inputs, to
//     POST /v1/profiles/ingest. The first upload ships the program
//     reference so the server registers the unit. Each upload's ID
//     (fleet-00042) doubles as its X-Request-ID, so its server-side
//     span tree is findable by the name the ingest store deduplicates
//     on. At log-spaced checkpoints it queries /v1/profiles/stats with
//     agreement rows and prints how each estimate source's decision
//     agreement against the live aggregate converges toward the offline
//     eval.OptReport values; -tol turns the final delta into an exit
//     status.
//
// Both modes share the pacer (-rps), the workers (-j, with an HTTP
// client whose idle-connection pool matches it), the 429 handling and
// the report. Shed requests (429) honor Retry-After and retry; their
// end-to-end latency — including the backoff — is what the percentiles
// report, because that is what a client actually waits. The
// percentiles are those of the loadtest.request span each request
// runs under.
//
// The exit status makes it CI-usable: any failed request, 5xx or
// transport error fails, and -max-p99 turns the p99 into an assertion.
//
// Usage:
//
//	loadtest -addr localhost:8080 -duration 20s -rps 50
//	loadtest -addr localhost:8080 -rps 200 -hit 0.95 -batch 16 -j 16
//	loadtest -mode ingest -addr localhost:8080 -program eqntott -n 500 -rps 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"staticest/internal/cliutil"
	"staticest/internal/gen"
	"staticest/internal/obs"
)

func main() {
	mode := flag.String("mode", "estimate", "traffic to send: estimate (/v1/estimate, /v1/batch) or ingest (/v1/profiles/ingest)")
	addr := flag.String("addr", "localhost:8080", "serve instance to drive")
	rps := flag.Float64("rps", 50, "target requests per second (0 = unthrottled)")
	jobs := flag.Int("j", 8, "concurrent client workers")
	maxP99 := flag.Duration("max-p99", 0, "fail if request p99 exceeds this (0 = report only)")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	duration := flag.Duration("duration", 20*time.Second, "estimate mode: how long to send load")
	hit := flag.Float64("hit", 0.9, "estimate mode: fraction of requests drawn from the hot (cached) program set")
	hot := flag.Int("hot", 8, "estimate mode: hot-set size (distinct programs the server keeps cached)")
	batch := flag.Int("batch", 1, "estimate mode: items per request (1 = POST /v1/estimate, >1 = POST /v1/batch)")
	seed := flag.Int64("seed", 1, "estimate mode: program-generator seed")
	program := flag.String("program", "compress", "ingest mode: benchmark-suite program the fleet runs")
	n := flag.Int("n", 200, "ingest mode: total uploads")
	tol := flag.Float64("tol", 0.1, "ingest mode: max allowed final |live - offline| agreement delta (negative = report only)")
	flag.Parse()
	if err := cliutil.CheckEnum("mode", *mode, "estimate", "ingest"); err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 || *jobs < 1 || *hot < 1 || *batch < 1 || *hit < 0 || *hit > 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: loadtest [flags]")
		flag.Usage()
		os.Exit(2)
	}
	o, closeObs, err := cliutil.Observability(*trace, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
	if o == nil { // the report reads the request span histogram
		o = obs.New()
	}
	d := newDriver(*addr, *rps, *jobs, o)
	if *mode == "ingest" {
		err = d.ingest(*program, *n, *tol)
	} else {
		err = d.estimate(*duration, *hit, *hot, *batch, *seed)
	}
	if err == nil {
		err = d.finish(*maxP99)
	}
	d.stopPacer()
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
}

// driver holds what both modes share: the client, the pacer, and the
// result counters.
type driver struct {
	base   string
	rps    float64
	jobs   int
	client *http.Client
	obs    *obs.Observer
	ticker *time.Ticker // nil when unthrottled

	start   time.Time // when the first request was sent
	sent    atomic.Int64
	ok      atomic.Int64
	shed    atomic.Int64 // 429s observed (each retried)
	failed  atomic.Int64 // 4xx/5xx other than 429
	server5 atomic.Int64 // 5xx subset of failed
}

func newDriver(addr string, rps float64, jobs int, o *obs.Observer) *driver {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// http.DefaultClient keeps two idle connections per host, so more
	// workers than that would open and close a connection per request.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = jobs
	tr.MaxIdleConns = max(tr.MaxIdleConns, jobs)
	d := &driver{base: base, rps: rps, jobs: jobs, client: &http.Client{Transport: tr}, obs: o}
	if rps > 0 {
		d.ticker = time.NewTicker(time.Duration(float64(time.Second) / rps))
	}
	return d
}

func (d *driver) stopPacer() {
	if d.ticker != nil {
		d.ticker.Stop()
	}
}

// fanOut runs d.jobs workers. Each takes its next request from next
// (false: no more work), waits for the pacer, and sends it, until next
// runs dry or stop closes (a nil stop never does). It returns once every
// worker has stopped, with the first transport error.
func (d *driver) fanOut(stop <-chan struct{}, next func(worker int) (send func() error, ok bool)) error {
	var wg sync.WaitGroup
	errs := make(chan error, d.jobs)
	for w := 0; w < d.jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				send, ok := next(w)
				if !ok {
					return
				}
				if d.ticker != nil {
					select {
					case <-d.ticker.C:
					case <-stop:
						return
					}
				}
				if err := send(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// post sends one request, retrying 429s per their Retry-After hint. It
// returns an error only for a transport failure; an HTTP-level failure
// is counted, its first occurrence printed, and reported as ok=false.
func (d *driver) post(path string, body []byte, requestID string) (ok bool, err error) {
	d.sent.Add(1)
	sp := d.obs.StartSpan("loadtest.request", obs.KV("path", path))
	defer sp.End()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		if requestID != "" {
			req.Header.Set("X-Request-ID", requestID)
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return false, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			d.ok.Add(1)
			return true, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 10:
			d.shed.Add(1)
			wait := time.Second
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := time.ParseDuration(ra + "s"); err == nil {
					wait = secs
				}
			}
			time.Sleep(wait)
		default:
			if d.failed.Add(1) == 1 {
				fmt.Fprintf(os.Stderr, "loadtest: first failed request: %s status %d: %.300s\n",
					path, resp.StatusCode, out)
			}
			if resp.StatusCode >= 500 {
				d.server5.Add(1)
			}
			return false, nil
		}
	}
}

// get fetches path and returns its body, failing on any status but 200.
func (d *driver) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// finish prints the run's summary and the server's view of it, and
// turns failures and the -max-p99 bound into an error.
func (d *driver) finish(maxP99 time.Duration) error {
	elapsed := time.Since(d.start)
	s := d.obs.SpanHistogram("loadtest.request").Summarize()
	fmt.Printf("loadtest: %d requests in %.1fs (%.1f req/s achieved), %d ok, %d shed(429), %d failed (%d of them 5xx)\n",
		d.sent.Load(), elapsed.Seconds(), float64(d.sent.Load())/elapsed.Seconds(),
		d.ok.Load(), d.shed.Load(), d.failed.Load(), d.server5.Load())
	fmt.Printf("loadtest: latency p50=%.3fms p90=%.3fms p99=%.3fms p999=%.3fms (n=%d)\n",
		s.P50*1e3, s.P90*1e3, s.P99*1e3, s.P999*1e3, s.Count)

	if err := d.printServerStatus(); err != nil {
		fmt.Printf("loadtest: server status unavailable: %v\n", err)
	}

	if d.server5.Load() > 0 {
		return fmt.Errorf("%d server errors (5xx)", d.server5.Load())
	}
	if d.failed.Load() > 0 {
		return fmt.Errorf("%d failed requests", d.failed.Load())
	}
	if maxP99 > 0 && s.P99 > maxP99.Seconds() {
		return fmt.Errorf("p99 %.3fms exceeds bound %s", s.P99*1e3, maxP99)
	}
	return nil
}

// estimate sends estimate (or batch) requests for the given duration.
func (d *driver) estimate(duration time.Duration, hitFrac float64, hot, batchN int, seed int64) error {
	// Pre-build every request body: the driver must not spend its send
	// budget generating C programs. Hot bodies repeat (cache hits after
	// first touch); cold bodies are distinct programs, enough that a
	// full-length unthrottled run does not wrap around into accidental
	// hits.
	g := gen.New(seed)
	hotSrc := make([][]byte, hot)
	for i := range hotSrc {
		hotSrc[i] = g.Program()
	}
	coldSrc := make([][]byte, 4096)
	for i := range coldSrc {
		coldSrc[i] = g.Program()
	}
	// body picks one source according to the hit/miss mix. Cold picks
	// walk the unique pool so each is a fresh fingerprint.
	body := func(rng *rand.Rand, coldIdx *int) []byte {
		if rng.Float64() < hitFrac {
			return hotSrc[rng.Intn(len(hotSrc))]
		}
		src := coldSrc[*coldIdx%len(coldSrc)]
		*coldIdx++
		return src
	}
	path := "/v1/estimate"
	if batchN > 1 {
		path = "/v1/batch"
	}

	fmt.Printf("loadtest: mode=estimate addr=%s duration=%s rps=%s hit=%.2f hot=%d batch=%d workers=%d seed=%d\n",
		d.base, duration, rateString(d.rps), hitFrac, hot, batchN, d.jobs, seed)

	rngs := make([]*rand.Rand, d.jobs)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed + int64(w)*7919))
	}
	stop := make(chan struct{})
	timer := time.AfterFunc(duration, func() { close(stop) })
	defer timer.Stop()
	d.start = time.Now()
	return d.fanOut(stop, func(w int) (func() error, bool) {
		rng := rngs[w]
		coldIdx := rng.Intn(len(coldSrc)) // stagger workers' cold pools
		var payload []byte
		if batchN > 1 {
			var b bytes.Buffer
			b.WriteString(`{"items":[`)
			for i := 0; i < batchN; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				item, _ := json.Marshal(struct {
					Source string `json:"source"`
				}{string(body(rng, &coldIdx))})
				b.Write(item)
			}
			b.WriteString(`]}`)
			payload = b.Bytes()
		} else {
			payload, _ = json.Marshal(struct {
				Source string `json:"source"`
			}{string(body(rng, &coldIdx))})
		}
		return func() error {
			_, err := d.post(path, payload, "")
			return err
		}, true
	})
}

// printServerStatus fetches /v1/debug/status and prints the server-side
// view of the run: cached units, hit ratio, batch items.
func (d *driver) printServerStatus() error {
	body, err := d.get("/v1/debug/status")
	if err != nil {
		return err
	}
	var st struct {
		Cache struct {
			Units    int     `json:"units"`
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Batch struct {
			Items      int64 `json:"items"`
			ItemErrors int64 `json:"item_errors"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	fmt.Printf("loadtest: server cache units=%d hits=%d misses=%d hit_ratio=%.3f; batch items=%d item_errors=%d\n",
		st.Cache.Units, st.Cache.Hits, st.Cache.Misses, st.Cache.HitRatio,
		st.Batch.Items, st.Batch.ItemErrors)
	return nil
}

func rateString(rate float64) string {
	if rate <= 0 {
		return "unthrottled"
	}
	return fmt.Sprintf("%g/s", rate)
}
