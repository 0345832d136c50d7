package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"encoding/json"

	"staticest/internal/obs"
	"staticest/internal/server"
)

// reportPercentiles publishes a latency histogram's tail as custom
// benchmark metrics; scripts/bench.sh carries them into
// BENCH_serve.json alongside ns/op, so the trajectory tracks tail
// latency and not just the mean.
func reportPercentiles(b *testing.B, h *obs.Histogram) {
	b.ReportMetric(h.Quantile(0.50)*1e9, "p50-ns")
	b.ReportMetric(h.Quantile(0.99)*1e9, "p99-ns")
	b.ReportMetric(h.Quantile(0.999)*1e9, "p999-ns")
}

// BenchmarkServeEstimate measures the serving latency of the cache-hit
// path — the steady state of a long-lived daemon: the unit and its
// estimates are already cached, so each request pays only routing,
// middleware, and (memoized) response bytes. scripts/bench.sh records
// it in the BENCH_serve.json trajectory.
func BenchmarkServeEstimate(b *testing.B) {
	s := server.New(server.Config{Obs: obs.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`
	do := func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	do() // warm the cache: the measured loop is pure cache hits
	lat := obs.NewHistogram("estimate_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		do()
		lat.Observe(time.Since(start).Seconds())
	}
	b.StopTimer()
	reportPercentiles(b, lat)
	o := s.Observer()
	if miss := o.Counter("server_cache_miss").Value(); miss != 1 {
		b.Fatalf("benchmark left the cache-hit path: %d misses", miss)
	}
}

// BenchmarkServeBatch measures the batch endpoint's amortization: one
// POST /v1/batch with 16 warm items, so the per-request overhead
// (connection, routing, middleware, semaphore) is paid once for 16
// estimates. The ns/item metric is the number to compare against
// BenchmarkServeEstimate's ns/op — the gap is what batching saves.
// scripts/bench.sh records it in the BENCH_serve.json trajectory.
func BenchmarkServeBatch(b *testing.B) {
	const items = 16
	s := server.New(server.Config{Obs: obs.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 16 copies of the same warm source: every item is a cache hit, the
	// batch analogue of BenchmarkServeEstimate's steady state.
	item := `{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`
	body := `{"items":[` + item + strings.Repeat(","+item, items-1) + `]}`
	do := func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	do() // warm the cache: the measured loop is pure cache hits
	lat := obs.NewHistogram("batch_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		do()
		lat.Observe(time.Since(start).Seconds())
	}
	b.StopTimer()
	reportPercentiles(b, lat)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
	if miss := s.Observer().Counter("server_cache_miss").Value(); miss != 1 {
		b.Fatalf("benchmark left the cache-hit path: %d misses", miss)
	}
}

// BenchmarkIngest measures the steady-state cost of one fleet upload:
// routing, JSON decoding, probe reconstruction, and the locked merge
// into the live accumulator. The unit is registered up front, so the
// loop never compiles; every iteration carries a fresh upload ID, so
// every request takes the accept path. scripts/bench.sh records it in
// the BENCH_serve.json trajectory.
func BenchmarkIngest(b *testing.B) {
	s := server.New(server.Config{Obs: obs.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	vec, _ := strchrVector(b)
	counts, err := json.Marshal(vec.Counts)
	if err != nil {
		b.Fatal(err)
	}

	do := func(id string) {
		body := `{"name":"strchr.c","source":` + jsonString(strchrSrc) +
			`,"upload_id":"` + id + `","label":"bench","counts":` + string(counts) + `}`
		resp, err := http.Post(ts.URL+"/v1/profiles/ingest", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	do("warm") // registers the unit; the measured loop never compiles
	lat := obs.NewHistogram("ingest_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		do(fmt.Sprintf("b%d", i))
		lat.Observe(time.Since(start).Seconds())
	}
	b.StopTimer()
	reportPercentiles(b, lat)
	if miss := s.Observer().Counter("server_cache_miss").Value(); miss != 1 {
		b.Fatalf("benchmark left the cache-hit path: %d misses", miss)
	}
}
