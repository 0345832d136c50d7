package server

// White-box concurrency suite for the unit cache. Everything here is
// meant to run under -race: the tests drive the cache the way a
// saturated server does — many goroutines, mixed hit/miss/evict/pin
// traffic, identical keys racing into one flight — and then assert the
// invariants: the LRU bound, pinned units never evicted, exactly-once
// compilation per key, and byte-identical memoized bodies.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"staticest"
	"staticest/internal/ingest"
	"staticest/internal/obs"
)

// fakeKey fabricates a fingerprint-shaped hex key.
func fakeKey(id int) string {
	return fmt.Sprintf("%064x", id)
}

// compileStub returns a distinct dummy unit per call; cache tests never
// estimate through it, they only track identity and count compiles.
func compileStub(calls *atomic.Int64) func() (*staticest.Unit, error) {
	return func() (*staticest.Unit, error) {
		calls.Add(1)
		return &staticest.Unit{}, nil
	}
}

// TestCacheEviction pins the LRU bound through the server: with a
// one-unit cache, a second source evicts the first, so re-requesting
// the first recompiles.
func TestCacheEviction(t *testing.T) {
	s := New(Config{Obs: obs.New()})
	s.cache = newUnitCache(1, s.ingest)
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

// TestCacheSingleflight is the exactly-once contract: 32 goroutines
// requesting the same uncached key race into one flight — one compile,
// one miss leader, and every caller gets the same *compiled.
func TestCacheSingleflight(t *testing.T) {
	uc := newUnitCache(64, ingest.NewStore(nil))
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
	uc := newUnitCache(64, ingest.NewStore(nil))
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

// TestCacheLRUOrder pins whole-cache LRU order: past the bound the
// least recently used unit goes, a hit makes a unit the most recent,
// and a pinned unit sits outside the bound and is never evicted.
func TestCacheLRUOrder(t *testing.T) {
	uc := newUnitCache(3, ingest.NewStore(nil))
	var calls atomic.Int64
	get := func(id int) *compiled {
		t.Helper()
		c, _, err := uc.get(fakeKey(id), compileStub(&calls))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	resident := func(want ...int) {
		t.Helper()
		for id := 0; id < 8; id++ {
			_, ok := uc.lookup(fakeKey(id))
			if ok != slices.Contains(want, id) {
				t.Errorf("key %d resident = %v, want %v (want resident %v)", id, ok, !ok, want)
			}
		}
	}

	get(0)
	get(1)
	get(2)
	get(0) // hit: 0 is now the most recent, 1 the least
	get(3)
	resident(0, 2, 3)

	uc.pin(get(2), nil) // hit, then out of the LRU: 3 and 0 remain in it
	get(4)
	get(5) // evicts 0, the least recent; the pinned 2 is not counted
	resident(2, 3, 4, 5)
	if n := uc.len(); n != 4 {
		t.Errorf("len = %d, want 4 (three LRU units and one pinned)", n)
	}
	if n := calls.Load(); n != 6 {
		t.Errorf("compiled %d times, want 6 (each key once)", n)
	}
}

// TestCachePinDuringFlight pins that a key pinned while a compile of it
// is in flight keeps one resident copy, the pinned one: the flight's
// unit goes to its callers but is not inserted, and pinning it returns
// the copy pinned first, whose live state its uploads must merge into.
func TestCachePinDuringFlight(t *testing.T) {
	uc := newUnitCache(4, ingest.NewStore(nil))
	key := fakeKey(1)
	pinned := &compiled{unit: &staticest.Unit{}, fingerprint: key}
	compiling, release := make(chan struct{}), make(chan struct{})
	flown := make(chan *compiled)
	go func() {
		c, _, _ := uc.get(key, func() (*staticest.Unit, error) {
			close(compiling)
			<-release
			return &staticest.Unit{}, nil
		})
		flown <- c
	}()
	<-compiling
	if p, ok := uc.pin(pinned, nil); !ok || p != pinned || p.live.Load() == nil {
		t.Fatalf("first pin = %p, %v; want the unit itself, live", p, ok)
	}
	live := pinned.live.Load()
	close(release)
	c := <-flown
	if c == nil || c == pinned {
		t.Fatalf("flight returned %p, want its own unit", c)
	}
	if p, ok := uc.lookup(key); !ok || p != pinned {
		t.Errorf("lookup = %p, %v; want the pinned unit", p, ok)
	}
	if n := uc.len(); n != 1 {
		t.Errorf("len = %d, want 1 (one resident copy)", n)
	}
	if p, ok := uc.pin(c, nil); !ok || p != pinned || p.live.Load() != live {
		t.Errorf("pin of the flight's copy = %p, %v; want the copy pinned first with its live state", p, ok)
	}
	if c.live.Load() != nil {
		t.Error("pin of the flight's copy gave that copy live state of its own")
	}
	if n := uc.liveLen(); n != 1 {
		t.Errorf("liveLen = %d, want 1", n)
	}
}

// TestCacheConcurrentMixed is the 64-goroutine soak: mixed hit / miss /
// evict / pin traffic on a deliberately small cache, so insertions,
// evictions, LRU bumps, pins and flights all interleave. Run under
// -race this is the data-race proof for the cache; the assertions pin
// the invariants that must survive the chaos — the LRU bound holds,
// the pin bound holds exactly though four times as many goroutines
// race for it, every pinned unit stays resident, and every get
// observes a usable result.
func TestCacheConcurrentMixed(t *testing.T) {
	const limit = 16
	uc := newUnitCache(limit, ingest.NewStore(nil))

	// 8 hot keys are requested by every goroutine (hits + flights);
	// cold keys are unique per iteration (misses + evictions), and each
	// goroutine pins its first cold unit.
	hot := make([]string, 8)
	hotCalls := make([]atomic.Int64, len(hot))
	for i := range hot {
		hot[i] = fakeKey(1_000_000 + i)
	}

	const goroutines = 64
	const iters = 50
	var pinnedOK [goroutines]bool
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
					c, _, err := uc.get(fakeKey(g*10_000+i), compileStub(&calls))
					if err != nil {
						t.Errorf("cold get: %v", err)
						return
					}
					if i == 2 {
						_, pinnedOK[g] = uc.pin(c, nil)
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

	uc.mu.Lock()
	lruLen, pinned := uc.lru.Len(), len(uc.pinned)
	uc.mu.Unlock()
	if lruLen > limit {
		t.Errorf("LRU holds %d units, want <= %d", lruLen, limit)
	}
	if pinned != limit {
		t.Errorf("%d pinned units, want %d (the bound, with %d goroutines pinning)", pinned, limit, goroutines)
	}
	won := 0
	for g := 0; g < goroutines; g++ {
		if !pinnedOK[g] {
			continue
		}
		won++
		if _, ok := uc.lookup(fakeKey(g*10_000 + 2)); !ok {
			t.Errorf("pinned unit of goroutine %d was evicted", g)
		}
	}
	if won != limit {
		t.Errorf("%d pins reported success, want %d", won, limit)
	}
	// Hot keys may be evicted by cold floods and then recompiled, but
	// every hot key compiled at least once.
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
