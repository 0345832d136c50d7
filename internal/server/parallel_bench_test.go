package server

// Cache-hit scaling benchmark (white-box: it drives the serving core —
// unit-cache lookup plus memoized response retrieval — without HTTP,
// so the only contended resource is the cache itself). Under
// GOMAXPROCS 1 there is nothing to contend.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"staticest"
	"staticest/internal/gen"
	"staticest/internal/obs"
	"staticest/internal/suite"
)

// benchServer builds a server whose cache holds hotSet prewarmed
// generated programs, returning the fingerprint keys and matching
// requests.
func benchServer(b *testing.B, hotSet int) (*Server, []string, []EstimateRequest) {
	b.Helper()
	s := New(Config{Obs: obs.New()})
	s.cache = newUnitCache(hotSet*2, s.ingest)
	keys := make([]string, hotSet)
	reqs := make([]EstimateRequest, hotSet)
	for i := 0; i < hotSet; i++ {
		src := gen.Source(int64(1000 + i))
		name := fmt.Sprintf("bench_%d.c", i)
		c, err := s.compileCached(context.Background(), name, src)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = staticest.Fingerprint(src)
		reqs[i] = EstimateRequest{}
		if _, err := s.estimateBody(context.Background(), c, &reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys, reqs
}

// serveOne is one steady-state serving operation: resolve the unit
// through the cache and fetch its memoized response body. The compile
// callback must never fire — the set is prewarmed.
func serveOne(s *Server, key string, req *EstimateRequest) error {
	c, _, err := s.cache.get(key, func() (*staticest.Unit, error) {
		return nil, errors.New("benchmark hit the compile path")
	})
	if err != nil {
		return err
	}
	body, err := s.estimateBody(context.Background(), c, req)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return errors.New("empty body")
	}
	return nil
}

// BenchmarkServeEstimateParallel is the serving-core scaling benchmark:
// RunParallel cache hits with memoized bodies over a 64-program hot
// set, every hit taking the cache's one lock.
func BenchmarkServeEstimateParallel(b *testing.B) {
	const hotSet = 64
	s, keys, reqs := benchServer(b, hotSet)
	lat := obs.NewHistogram("parallel_serve_seconds")
	var next atomic.Int64
	var failed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks the hot set from its own offset, so
		// concurrent goroutines touch different keys.
		i := int(next.Add(1)) * 7
		for pb.Next() {
			k := i % hotSet
			i++
			start := time.Now()
			if err := serveOne(s, keys[k], &reqs[k]); err != nil {
				failed.Add(1)
				return
			}
			lat.Observe(time.Since(start).Seconds())
		}
	})
	b.StopTimer()
	if failed.Load() > 0 {
		b.Fatalf("%d serving ops failed", failed.Load())
	}
	if miss := s.misses.Value(); miss != hotSet {
		b.Fatalf("cache misses = %d, want %d (prewarm only)", miss, hotSet)
	}
	reportPercentilesInternal(b, lat)
}

// reportPercentilesInternal mirrors bench_test.go's reportPercentiles
// for the white-box benchmarks (different package halves).
func reportPercentilesInternal(b *testing.B, h *obs.Histogram) {
	b.ReportMetric(h.Quantile(0.50)*1e9, "p50-ns")
	b.ReportMetric(h.Quantile(0.99)*1e9, "p99-ns")
	b.ReportMetric(h.Quantile(0.999)*1e9, "p999-ns")
}

// compilePhasesPool compiles the pool BenchmarkCompilePhases runs on:
// the 14 suite programs plus 32 generated ones whose seeds a fixed-seed
// generator draws, under the same names.
func compilePhasesPool(tb testing.TB) []*compiled {
	tb.Helper()
	type input struct {
		name string
		src  []byte
	}
	var pool []input
	for _, p := range suite.Programs() {
		pool = append(pool, input{p.Name + ".c", []byte(p.Source)})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := rng.Int63()
		pool = append(pool, input{fmt.Sprintf("gen%d.c", seed), gen.Source(seed)})
	}
	out := make([]*compiled, len(pool))
	for i, in := range pool {
		u, err := staticest.Compile(in.name, in.src)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = &compiled{unit: u, fingerprint: staticest.Fingerprint(in.src)}
	}
	return out
}

// BenchmarkEncodeEstimate times the encoding of estimate replies, the
// last step of a cache miss on /v1/estimate and of each batch item:
// set-up builds the default estimate reply of every unit in
// BenchmarkCompilePhases' pool, and one op encodes them all.
func BenchmarkEncodeEstimate(b *testing.B) {
	units := compilePhasesPool(b)
	replies := make([]any, len(units))
	for i, c := range units {
		v, err := buildEstimate(context.Background(), c, 10, false)
		if err != nil {
			b.Fatal(err)
		}
		replies[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range replies {
			if _, err := encodeBody(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}
