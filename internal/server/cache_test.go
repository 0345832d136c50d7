package server

// White-box concurrency suite for the sharded unit cache. Everything
// here is meant to run under -race: the tests drive the cache the way a
// saturated server does — many goroutines, mixed hit/miss/evict
// traffic, identical keys racing into one flight — and then assert the
// invariants that striping must preserve: per-shard LRU bounds,
// exactly-once compilation per key, and byte-identical memoized bodies.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"staticest"
	"staticest/internal/obs"
)

// fakeKey fabricates a fingerprint-shaped hex key whose leading
// characters vary (shardFor routes on the prefix), so consecutive ids
// spread across shards the way real SHA-256 fingerprints do.
func fakeKey(id int) string {
	return fmt.Sprintf("%08x%056x", uint32(id)*2654435761, id)
}

// compileStub returns a distinct dummy unit per call; cache tests never
// estimate through it, they only track identity and count compiles.
func compileStub(calls *atomic.Int64) func() (*staticest.Unit, error) {
	return func() (*staticest.Unit, error) {
		calls.Add(1)
		return &staticest.Unit{}, nil
	}
}

// TestCacheShardDefaults pins the shard-count policy: explicit counts
// round up to a power of two, and the default follows GOMAXPROCS.
func TestCacheShardDefaults(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := newUnitCache(64, tc.shards).numShards(); got != tc.want {
			t.Errorf("newUnitCache(64, %d): %d shards, want %d", tc.shards, got, tc.want)
		}
	}
	want := nextPow2(runtime.GOMAXPROCS(0))
	if got := newUnitCache(64, 0).numShards(); got != want {
		t.Errorf("default shards = %d, want nextPow2(GOMAXPROCS) = %d", got, want)
	}
}

// TestCacheEviction pins the LRU bound through the server: with a
// one-unit, one-shard cache, a second source evicts the first, so
// re-requesting the first recompiles. (One shard makes the two sources
// contend for the same slot regardless of GOMAXPROCS; the per-shard
// bound under striping is TestCacheShardEviction.)
func TestCacheEviction(t *testing.T) {
	s := New(Config{Obs: obs.New()})
	s.cache = newUnitCache(1, 1)
	srcA := "int main(void) { return 0; }"
	srcB := "int main(void) { return 1; }"
	for _, src := range []string{srcA, srcB, srcA} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/estimate",
			strings.NewReader(`{"source":`+strconv.Quote(src)+`}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	if miss := s.misses.Value(); miss != 3 {
		t.Errorf("server_cache_miss = %d, want 3 (A, B, A-again after eviction)", miss)
	}
}

// TestCacheShardAffinity pins the property singleflight depends on:
// the same key always maps to the same shard.
func TestCacheShardAffinity(t *testing.T) {
	uc := newUnitCache(64, 8)
	for i := 0; i < 256; i++ {
		key := fakeKey(i)
		first := uc.shardFor(key)
		for j := 0; j < 4; j++ {
			if uc.shardFor(key) != first {
				t.Fatalf("key %q mapped to different shards across calls", key)
			}
		}
	}
	// And real-shaped keys actually spread: 256 distinct keys over 8
	// shards should never collapse onto one stripe.
	seen := map[*cacheShard]bool{}
	for i := 0; i < 256; i++ {
		seen[uc.shardFor(fakeKey(i))] = true
	}
	if len(seen) < 2 {
		t.Errorf("256 keys landed on %d shard(s); striping is not spreading", len(seen))
	}
}

// TestCacheSingleflightSharded is the exactly-once contract under
// striping: 32 goroutines requesting the same uncached key race into
// one flight — one compile, one miss leader, and every caller gets the
// same *compiled.
func TestCacheSingleflightSharded(t *testing.T) {
	uc := newUnitCache(64, 8)
	key := fakeKey(42)

	const n = 32
	var calls, leaders atomic.Int64
	results := make([]*compiled, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, missed, err := uc.get(key, compileStub(&calls))
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if missed {
				leaders.Add(1)
			}
			results[i] = c
		}(i)
	}
	close(start)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("compile ran %d times, want exactly 1", calls.Load())
	}
	if leaders.Load() != 1 {
		t.Errorf("%d callers reported a miss, want exactly 1 leader", leaders.Load())
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *compiled than caller 0", i)
		}
	}
}

// TestCacheCompileErrorNotCached pins that a failed compile is returned
// to every waiter of its flight but never inserted: the next get for
// the same key recompiles.
func TestCacheCompileErrorNotCached(t *testing.T) {
	uc := newUnitCache(64, 4)
	key := fakeKey(7)
	boom := errors.New("boom")

	var calls atomic.Int64
	fail := func() (*staticest.Unit, error) { calls.Add(1); return nil, boom }
	if _, _, err := uc.get(key, fail); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want boom", err)
	}
	if _, ok := uc.lookup(key); ok {
		t.Fatal("failed compile was cached")
	}
	if _, _, err := uc.get(key, fail); !errors.Is(err, boom) {
		t.Fatalf("second get: err = %v, want boom", err)
	}
	if calls.Load() != 2 {
		t.Errorf("compile ran %d times, want 2 (errors are not cached)", calls.Load())
	}
}

// TestCacheShardEviction proves the per-shard LRU bound: a cache of 8
// units over 4 shards holds at most 2 per shard, so flooding one shard
// with fresh keys evicts that shard's cold entries while other shards
// keep theirs.
func TestCacheShardEviction(t *testing.T) {
	uc := newUnitCache(8, 4)
	perShard := uc.shards[0].max
	if perShard != 2 {
		t.Fatalf("per-shard bound = %d, want 2 (8 units / 4 shards)", perShard)
	}

	// Bucket fabricated keys by the shard they map to until one shard
	// has twice its bound.
	target := uc.shardFor(fakeKey(0))
	var targetKeys, otherKeys []string
	for i := 0; len(targetKeys) < 2*perShard || len(otherKeys) == 0; i++ {
		key := fakeKey(i)
		if uc.shardFor(key) == target {
			targetKeys = append(targetKeys, key)
		} else if len(otherKeys) == 0 {
			otherKeys = append(otherKeys, key)
		}
	}

	var calls atomic.Int64
	for _, key := range append(otherKeys, targetKeys...) {
		if _, _, err := uc.get(key, compileStub(&calls)); err != nil {
			t.Fatal(err)
		}
	}

	target.mu.Lock()
	got := target.lru.Len()
	target.mu.Unlock()
	if got > perShard {
		t.Errorf("flooded shard holds %d units, want <= %d", got, perShard)
	}
	// The other shard was untouched by the flood: its entry survives.
	if _, ok := uc.lookup(otherKeys[0]); !ok {
		t.Error("entry on a different shard was evicted by the flood")
	}
	// LRU within the shard: the newest keys are resident, the oldest
	// were evicted.
	for _, key := range targetKeys[len(targetKeys)-perShard:] {
		if _, ok := uc.lookup(key); !ok {
			t.Errorf("recently-inserted key %q missing from its shard", key)
		}
	}
	for _, key := range targetKeys[:len(targetKeys)-perShard] {
		if _, ok := uc.lookup(key); ok {
			t.Errorf("cold key %q should have been evicted", key)
		}
	}
}

// TestCacheConcurrentMixed is the 64-goroutine soak: mixed hit / miss /
// evict traffic across every shard of a deliberately small cache, so
// insertions, evictions, LRU bumps, and flights all interleave. Run
// under -race this is the data-race proof for the striped cache; the
// assertions pin the invariants that must survive the chaos — the
// total bound holds, hot keys compile exactly once each, and every get
// observes a usable result.
func TestCacheConcurrentMixed(t *testing.T) {
	uc := newUnitCache(16, 4)
	bound := 0
	for _, sh := range uc.shards {
		bound += sh.max
	}

	// 8 hot keys are requested by every goroutine (hits + flights);
	// cold keys are unique per iteration (misses + evictions).
	hot := make([]string, 8)
	hotCalls := make([]atomic.Int64, len(hot))
	for i := range hot {
		hot[i] = fakeKey(1_000_000 + i)
	}

	const goroutines = 64
	const iters = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1: // hot traffic: hits after first touch
					k := (g + i) % len(hot)
					c, _, err := uc.get(hot[k], compileStub(&hotCalls[k]))
					if err != nil || c == nil {
						t.Errorf("hot get: c=%v err=%v", c, err)
						return
					}
					if c.fingerprint != hot[k] {
						t.Errorf("hot get returned wrong unit: %q != %q", c.fingerprint, hot[k])
						return
					}
				case 2: // cold traffic: unique keys force evictions
					var calls atomic.Int64
					key := fakeKey(g*10_000 + i)
					if _, _, err := uc.get(key, compileStub(&calls)); err != nil {
						t.Errorf("cold get: %v", err)
						return
					}
				case 3: // reads race the writes
					uc.lookup(hot[(g+i)%len(hot)])
					uc.len()
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if n := uc.len(); n > bound {
		t.Errorf("cache holds %d units, want <= %d", n, bound)
	}
	// Hot keys may be evicted by cold floods on their shard and then
	// recompiled — but a hot key that was never evicted must have
	// compiled exactly once. The aggregate check: every hot key
	// compiled at least once and (with 16 slots for 8 hot keys plus
	// transient cold traffic) none thrashed unboundedly.
	for i := range hot {
		if hotCalls[i].Load() < 1 {
			t.Errorf("hot key %d never compiled", i)
		}
	}
}

// TestResponseMemo pins the response memoization on one compiled unit:
// concurrent callers for the same options key build and encode exactly
// once and receive the same bytes; distinct keys build independently;
// build errors are never memoized.
func TestResponseMemo(t *testing.T) {
	c := &compiled{unit: &staticest.Unit{}, fingerprint: fakeKey(1)}

	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		return map[string]int{"x": 1}, nil
	}

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := c.response("estimate|top=10|reuse=false", build)
			if err != nil {
				t.Errorf("response %d: %v", i, err)
				return
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()

	if builds.Load() != 1 {
		t.Errorf("build ran %d times, want exactly 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}

	// A different options key is a separate entry.
	if _, err := c.response("estimate|top=3|reuse=false", build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Errorf("second key: build count = %d, want 2", builds.Load())
	}

	// Errors are not memoized: a failed key retries.
	boom := errors.New("boom")
	fails := 0
	failing := func() (any, error) { fails++; return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.response("estimate|top=9|reuse=true", failing); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	if fails != 2 {
		t.Errorf("failing build ran %d times, want 2 (errors are never memoized)", fails)
	}
}

// TestResponseMemoBound pins the overflow policy: past maxMemoBodies
// distinct option keys, response still serves correct bytes but stops
// admitting new memo entries.
func TestResponseMemoBound(t *testing.T) {
	c := &compiled{unit: &staticest.Unit{}, fingerprint: fakeKey(2)}
	for i := 0; i < maxMemoBodies+4; i++ {
		v := i
		if _, err := c.response(fmt.Sprintf("estimate|top=%d|reuse=false", i),
			func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.memoMu.Lock()
	n := len(c.memo)
	c.memoMu.Unlock()
	if n > maxMemoBodies {
		t.Errorf("memo holds %d entries, want <= %d", n, maxMemoBodies)
	}
	// Overflow keys still compute correctly (just without memoization).
	var calls atomic.Int64
	key := "estimate|top=999|reuse=true"
	for i := 0; i < 2; i++ {
		b, err := c.response(key, func() (any, error) { calls.Add(1); return "v", nil })
		if err != nil || string(b) != "\"v\"\n" {
			t.Fatalf("overflow response: %q, %v", b, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("overflow key built %d times, want 2 (not memoized past the bound)", calls.Load())
	}
}
