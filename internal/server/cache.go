package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"runtime"
	"sync"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/probes"
)

// compiled is one cached compilation: the unit plus lazily-memoized
// derived artifacts (static estimates, probe plan, serialized response
// bodies) that every request for the same source would otherwise
// recompute. The memoization makes the cache-hit path pure serving:
// after the first estimate request for a (source, options) pair, later
// ones only copy bytes.
type compiled struct {
	unit        *staticest.Unit
	fingerprint string

	estOnce sync.Once
	est     *core.Estimates

	planOnce sync.Once
	plan     *probes.Plan

	// memo caches fully-encoded response bodies keyed by an options
	// string (e.g. "estimate|top=10|reuse=false"). Each entry is
	// computed exactly once (sync.Once per key) and then served
	// verbatim, so repeat hits skip both the ranking and the JSON
	// re-serialization. Bounded by maxMemoBodies per unit; overflow
	// requests compute without memoizing.
	memoMu sync.Mutex
	memo   map[string]*memoBody
}

// maxMemoBodies bounds the per-unit response memo. The options space is
// technically unbounded ("top" is an arbitrary int), so past this many
// distinct shapes the cache stops admitting new keys rather than grow
// without limit.
const maxMemoBodies = 16

// memoBody is one memoized response body.
type memoBody struct {
	once sync.Once
	body []byte
	err  error
}

// estimates returns the unit's static estimates, computing them on
// first use under ctx's span: the request that computes them shows the
// work in its span tree.
func (c *compiled) estimates(ctx context.Context) *core.Estimates {
	c.estOnce.Do(func() { c.est = c.unit.EstimateCtx(ctx) })
	return c.est
}

// probePlan returns the unit's sparse probe placement, computing it on
// first use under ctx's span, like estimates.
func (c *compiled) probePlan(ctx context.Context) *probes.Plan {
	c.planOnce.Do(func() { c.plan = c.unit.PlanProbesCtx(ctx) })
	return c.plan
}

// response returns the encoded response body for key, building and
// encoding it at most once per (unit, key) pair. Build errors are never
// memoized: the failed key is dropped so a retry recomputes.
func (c *compiled) response(key string, build func() (any, error)) ([]byte, error) {
	c.memoMu.Lock()
	if c.memo == nil {
		c.memo = make(map[string]*memoBody)
	}
	m, ok := c.memo[key]
	if !ok {
		if len(c.memo) >= maxMemoBodies {
			c.memoMu.Unlock()
			v, err := build()
			if err != nil {
				return nil, err
			}
			return encodeBody(v)
		}
		m = &memoBody{}
		c.memo[key] = m
	}
	c.memoMu.Unlock()
	m.once.Do(func() {
		v, err := build()
		if err == nil {
			m.body, m.err = encodeBody(v)
		} else {
			m.err = err
		}
		if m.err != nil {
			c.memoMu.Lock()
			delete(c.memo, key)
			c.memoMu.Unlock()
		}
	})
	return m.body, m.err
}

// encodeBody serializes a response value exactly the way the api
// middleware encodes non-memoized responses (two-space indent plus the
// encoder's trailing newline), so memoized and freshly-encoded replies
// are byte-identical.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// unitCache is a bounded LRU of compiled units keyed by source
// fingerprint, striped over N independently-locked shards so concurrent
// cache hits on different units never serialize on one mutex. The
// fingerprint is hex SHA-256, so its leading nibbles are uniformly
// distributed and the shard index is just the fingerprint prefix
// reduced mod the (power-of-two) shard count.
//
// Each shard keeps the original cache's semantics for the keys it owns:
// LRU eviction against a per-shard bound, and singleflight
// deduplication — when N requests for the same uncached source arrive
// concurrently, exactly one compiles and the other N-1 block on its
// result. Identical fingerprints always land on the same shard, so
// striping cannot split a flight. Compile errors are returned to every
// waiter but never cached — a retry recompiles.
type unitCache struct {
	shards []*cacheShard
	mask   uint32
}

// cacheShard is one stripe: a bounded LRU plus the in-flight compiles
// for the fingerprints it owns.
type cacheShard struct {
	mu      sync.Mutex
	max     int
	lru     list.List // front = most recently used; values are *compiled
	byKey   map[string]*list.Element
	flights map[string]*flight
}

// flight is one in-progress compile; waiters block on done.
type flight struct {
	done chan struct{}
	c    *compiled
	err  error
}

// newUnitCache builds a cache bounded to max units striped over the
// requested shard count. shards <= 0 picks the next power of two >=
// GOMAXPROCS; any other value is rounded up to a power of two (the
// shard index is a mask). The per-shard bound is ceil(max/shards) with
// a floor of one unit, so the total bound is max rounded up to a
// multiple of the shard count.
func newUnitCache(max, shards int) *unitCache {
	if max < 1 {
		max = 1
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := nextPow2(shards)
	perShard := (max + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	uc := &unitCache{shards: make([]*cacheShard, n), mask: uint32(n - 1)}
	for i := range uc.shards {
		uc.shards[i] = &cacheShard{
			max:     perShard,
			byKey:   make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return uc
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// numShards returns the stripe count.
func (uc *unitCache) numShards() int { return len(uc.shards) }

// shardFor maps a fingerprint to its stripe by prefix: the first eight
// hex characters fold into 32 bits, masked down to the shard index.
// Equal keys always map to the same shard, which is what preserves
// singleflight under striping. Non-hex bytes (ad-hoc test keys) still
// spread via their low nibble.
func (uc *unitCache) shardFor(key string) *cacheShard {
	var v uint32
	for i := 0; i < len(key) && i < 8; i++ {
		v = v<<4 | uint32(hexNibble(key[i]))
	}
	return uc.shards[v&uc.mask]
}

func hexNibble(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	}
	return c & 0xf
}

// get returns the cached compilation for key, compiling with compile on
// a miss. The bool reports whether this caller performed the compile
// (the cache-miss leader); waiters deduplicated onto another caller's
// in-flight compile report a hit, because no additional work happened.
func (uc *unitCache) get(key string, compile func() (*staticest.Unit, error)) (*compiled, bool, error) {
	sh := uc.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		sh.lru.MoveToFront(el)
		c := el.Value.(*compiled)
		sh.mu.Unlock()
		return c, false, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-f.done
		return f.c, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()

	unit, err := compile()
	if err == nil {
		f.c = &compiled{unit: unit, fingerprint: key}
	}
	f.err = err

	sh.mu.Lock()
	delete(sh.flights, key)
	if err == nil {
		sh.insertLocked(key, f.c)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.c, true, err
}

// insertLocked adds a fresh entry and evicts from the cold end past the
// shard's bound.
func (sh *cacheShard) insertLocked(key string, c *compiled) {
	sh.byKey[key] = sh.lru.PushFront(c)
	for sh.lru.Len() > sh.max {
		el := sh.lru.Back()
		sh.lru.Remove(el)
		delete(sh.byKey, el.Value.(*compiled).fingerprint)
	}
}

// lookup returns the cached compilation for key without compiling (and
// without disturbing an in-flight compile). Fingerprint-only requests
// (profile ingest) use it: they can only refer to sources the server
// has already seen.
func (uc *unitCache) lookup(key string) (*compiled, bool) {
	sh := uc.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byKey[key]; ok {
		sh.lru.MoveToFront(el)
		return el.Value.(*compiled), true
	}
	return nil, false
}

// len returns the number of cached units across all shards.
func (uc *unitCache) len() int {
	n := 0
	for _, sh := range uc.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
