// Command serve runs the estimation service: a long-lived HTTP/JSON
// daemon answering estimation, profiling, optimization, and
// explainability queries over a compiled-unit cache (see
// internal/server). The full pipeline sits behind six endpoints:
//
//	POST /v1/estimate          static block/invocation/call-site estimates
//	POST /v1/profile           interpreter run, full or sparse instrumentation
//	POST /v1/optimize          inline plan / layout / spill reports
//	GET  /v1/explain           per-heuristic attribution vs a measured profile
//	POST /v1/profiles/ingest   fleet upload of one sparse probe vector
//	GET  /v1/profiles/stats    live per-unit aggregates (+ agreement rows)
//
// plus /healthz, /metrics (Prometheus text exposition, including the
// span_seconds latency histogram of every span name — one per endpoint,
// server.<endpoint>, and one per pipeline layer under it, such as
// compile, cparse.parse or core.estimate — and runtime gauges),
// /v1/debug/status (ops snapshot), /v1/debug/slow (span trees of the
// slowest requests), and /debug/pprof/. Requests name a benchmark-suite
// program or ship C source inline; identical sources share one cached
// compilation (singleflight), so a hot source is compiled exactly once
// no matter how many clients ask.
//
// Ingested uploads close the PGO loop (see internal/ingest): they merge
// into live per-unit aggregates, and /v1/optimize with
// "freq_source":"live" plans from the fleet's measured frequencies,
// falling back to the smart static estimate for cold fingerprints.
//
// Inline sources are untrusted programs. Each run executes bytecode
// under a -max-steps budget and stops at the request's -timeout
// deadline, when the client gets 503. A source declaring an object over
// 1 GiB (ctypes.MaxObjectSize: an array, a struct, a function's frame,
// or all globals together), a function of more than 2,048 blocks, or
// more than 2,048 functions (cfg.MaxNodes) is a compile error, 422 on
// every endpoint.
//
// When every worker slot is busy, a request waits at most -queue-wait
// before being shed with 429 + Retry-After, so saturation degrades into
// fast, explicit backpressure instead of unbounded queueing.
//
// SIGTERM or SIGINT starts a graceful drain: in-flight requests finish
// (bounded by -drain) before the process exits.
//
// Usage:
//
//	serve -addr :8080
//	serve -addr :8080 -cache 128 -timeout 30s -j 4 -trace events.jsonl
//
//	curl -s localhost:8080/v1/estimate -d '{"program":"compress"}'
//	curl -s localhost:8080/v1/profiles/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"staticest/internal/cliutil"
	"staticest/internal/eval"
	"staticest/internal/obs"
	"staticest/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	cache := flag.Int("cache", 64, "compiled units kept in the LRU cache")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline: runs stop and the client gets 503")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	maxBody := flag.Int64("max-body", 4<<20, "request body size cap in bytes")
	maxSteps := flag.Int64("max-steps", 50_000_000, "block-execution budget per served run")
	queueWait := flag.Duration("queue-wait", 500*time.Millisecond, "max wait for a worker slot before shedding with 429")
	jobs := flag.Int("j", 0, "concurrent pipeline requests (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	metrics := flag.Bool("metrics", false, "print the final metrics exposition to stderr at exit")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: serve [flags]")
		flag.Usage()
		os.Exit(2)
	}
	eval.SetParallelism(*jobs)

	// The server requires an observability domain (its /metrics and
	// debug endpoints are part of the API), so a run without -trace or
	// -metrics still gets a live observer — just no JSONL sink.
	o, closeObs, err := cliutil.Observability(*trace, *metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if o == nil {
		o = obs.New()
		closeObs = func() {}
	}
	eval.SetObserver(o)

	s := server.New(server.Config{
		CacheSize:      *cache,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		MaxSteps:       *maxSteps,
		QueueWait:      *queueWait,
		Obs:            o,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", *addr)
	err = s.ListenAndServe(ctx, *addr)
	if *metrics {
		o.WriteProm(os.Stderr)
	}
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "serve: drained, exiting")
}
