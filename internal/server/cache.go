package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/eval"
	"staticest/internal/ingest"
	"staticest/internal/probes"
	"staticest/internal/suite"
)

// compiled is one cached compilation: the unit plus lazily-memoized
// derived artifacts (static estimates, probe plan, a suite program's
// measured profiles, serialized response bodies) that every request for
// the same source would otherwise recompute, and, once the unit is
// pinned, its live aggregate. The memoization makes the cache-hit path
// pure serving: after the first estimate request for a (source,
// options) pair, later ones only copy bytes.
type compiled struct {
	unit        *staticest.Unit
	fingerprint string

	estOnce sync.Once
	est     *core.Estimates

	planOnce sync.Once
	plan     *probes.Plan

	measuredOnce sync.Once
	measured     *eval.ProgramData
	measuredErr  error

	// live is the unit's ingest state, set once by unitCache.pin; nil
	// while the unit is not live.
	live atomic.Pointer[ingest.Unit]

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

// suiteProfiles returns the profiles of suite program p, whose source
// is the unit's, on each of its inputs, measured on first use on this
// unit with its estimates. The runs do not watch ctx, so the memo never
// holds a cancellation.
func (c *compiled) suiteProfiles(ctx context.Context, p *suite.Program) (*eval.ProgramData, error) {
	c.measuredOnce.Do(func() {
		c.measured, c.measuredErr = eval.LoadUnit(p, c.unit, c.estimates(ctx))
	})
	return c.measured, c.measuredErr
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

// unitCache is the server's one table of compiled units, keyed by
// source fingerprint, and the only place the server keeps per-unit
// state. Units live in a bounded LRU, except pinned ones: pinning a
// unit registers its live aggregate on the entry and moves the entry
// out of the LRU for good, so an ingested fingerprint stays one
// resident copy that /v1/profiles/stats and freq_source "live" can
// always resolve. A unit is pinned exactly when it is live. The same
// limit bounds the LRU's units and, separately, the pinned ones.
//
// One mutex guards the table. A miss is deduplicated by singleflight:
// when N requests for the same uncached source arrive concurrently,
// exactly one compiles and the other N-1 block on its result. Compile
// errors are returned to every waiter but never cached — a retry
// recompiles.
type unitCache struct {
	mu      sync.Mutex
	limit   int
	store   *ingest.Store // registers a unit's live state when it is pinned
	lru     list.List     // unpinned units, front = most recently used; values are *compiled
	byKey   map[string]*list.Element
	pinned  map[string]*compiled
	flights map[string]*flight
}

// flight is one in-progress compile; waiters block on done.
type flight struct {
	done chan struct{}
	c    *compiled
	err  error
}

// newUnitCache builds a cache holding at most limit unpinned units and
// limit pinned ones, whose live state store registers.
func newUnitCache(limit int, store *ingest.Store) *unitCache {
	return &unitCache{
		limit:   limit,
		store:   store,
		byKey:   make(map[string]*list.Element),
		pinned:  make(map[string]*compiled),
		flights: make(map[string]*flight),
	}
}

// get returns the cached compilation for key, compiling with compile on
// a miss. The bool reports whether this caller performed the compile
// (the cache-miss leader); waiters deduplicated onto another caller's
// in-flight compile report a hit, because no additional work happened.
func (uc *unitCache) get(key string, compile func() (*staticest.Unit, error)) (*compiled, bool, error) {
	uc.mu.Lock()
	if c, ok := uc.findLocked(key); ok {
		uc.mu.Unlock()
		return c, false, nil
	}
	if f, ok := uc.flights[key]; ok {
		uc.mu.Unlock()
		<-f.done
		return f.c, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	uc.flights[key] = f
	uc.mu.Unlock()

	unit, err := compile()
	if err == nil {
		f.c = &compiled{unit: unit, fingerprint: key}
	}
	f.err = err

	uc.mu.Lock()
	delete(uc.flights, key)
	_, pinned := uc.pinned[key] // an earlier copy was pinned meanwhile: keep that one
	if err == nil && !pinned {
		uc.byKey[key] = uc.lru.PushFront(f.c)
		for uc.lru.Len() > uc.limit {
			el := uc.lru.Back()
			uc.lru.Remove(el)
			delete(uc.byKey, el.Value.(*compiled).fingerprint)
		}
	}
	uc.mu.Unlock()
	close(f.done)
	return f.c, true, err
}

// findLocked returns the resident unit for key, marking an unpinned one
// most recently used.
func (uc *unitCache) findLocked(key string) (*compiled, bool) {
	if el, ok := uc.byKey[key]; ok {
		uc.lru.MoveToFront(el)
		return el.Value.(*compiled), true
	}
	c, ok := uc.pinned[key]
	return c, ok
}

// lookup returns the cached compilation for key without compiling (and
// without disturbing an in-flight compile). Fingerprint-only requests
// (profile ingest, stats) use it: they can only refer to sources the
// server has already seen.
func (uc *unitCache) lookup(key string) (*compiled, bool) {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return uc.findLocked(key)
}

// pin makes c's unit live and returns the pinned copy, which holds the
// live state. The first copy of a fingerprint to be pinned registers a
// live aggregate under plan and moves out of the LRU for good; a unit
// the LRU evicted before the pin is pinned all the same, and a pinned
// key is never compiled again. A later pin of another copy of the same
// fingerprint, such as the unit of a compile that was in flight during
// the first pin, returns the first copy and leaves its own copy as it
// is. At most limit units are pinned: past that, pin leaves a new unit
// where it is and reports false.
func (uc *unitCache) pin(c *compiled, plan *probes.Plan) (*compiled, bool) {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	if p, ok := uc.pinned[c.fingerprint]; ok {
		return p, true
	}
	if len(uc.pinned) >= uc.limit {
		return nil, false
	}
	if el, ok := uc.byKey[c.fingerprint]; ok {
		uc.lru.Remove(el)
		delete(uc.byKey, c.fingerprint)
	}
	c.live.Store(uc.store.Register(c.fingerprint, plan))
	uc.pinned[c.fingerprint] = c
	return c, true
}

// liveUnits returns the pinned units, the live ones, sorted by
// fingerprint.
func (uc *unitCache) liveUnits() []*compiled {
	uc.mu.Lock()
	all := make([]*compiled, 0, len(uc.pinned))
	for _, c := range uc.pinned {
		all = append(all, c)
	}
	uc.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].fingerprint < all[j].fingerprint })
	return all
}

// liveLen returns the number of pinned units, the live ones.
func (uc *unitCache) liveLen() int {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return len(uc.pinned)
}

// len returns the number of resident units, pinned ones included.
func (uc *unitCache) len() int {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return uc.lru.Len() + len(uc.pinned)
}
