package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"staticest"
	"staticest/internal/gen"
	"staticest/internal/server"
)

const (
	// batchItems is the item count of every batch-cold request.
	batchItems = 8
	// batchPool is the number of distinct items batch-cold cycles
	// through, 64 times the default 64-unit cache: by the time an item
	// comes round again it has long been evicted, so every item misses.
	batchPool = 4096
	// batchSamples batches, chosen by seed among the first
	// batchSampleFrom sent, keep their replies for verification.
	batchSamples, batchSampleFrom = 12, 64
	// cacheUnits is the server's default unit-cache size, which set-up
	// fills so that every timed insert evicts.
	cacheUnits = 64
)

// Broken items end with one of these functions, so that they fail in the
// parser or in semantic analysis; %d keeps every broken item distinct.
var breakers = []string{
	"\nint perfbench_broken_%d(void) { return 1 +; }\n",
	"\nint perfbench_broken_%d(void) { return perfbench_undeclared_%[1]d; }\n",
}

// batchCold is a closed loop of POST /v1/batch, from one caller, whose
// items are uncached generated sources, one per batch broken on purpose.
type batchCold struct {
	items   []source // the pool in send order
	broken  []bool
	batches []call
	warmups []call

	seq    atomic.Int64
	sample map[int64]bool

	mu   sync.Mutex
	kept map[int64][]byte // sampled batch seq -> reply body
}

func newBatchCold(seed int64) (*batchCold, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &batchCold{sample: make(map[int64]bool), kept: make(map[int64][]byte)}
	// Each batch takes one item from each of batchItems size strata of
	// the pool, in seeded order: every batch carries about the same
	// amount of source, and so does every run of cacheUnits consecutive
	// items, which is what the cache holds at any moment.
	drawn := make([][]byte, batchPool)
	for i := range drawn {
		drawn[i] = gen.Source(rng.Int63())
	}
	sort.SliceStable(drawn, func(a, b int) bool { return len(drawn[a]) < len(drawn[b]) })
	nb := batchPool / batchItems
	perms := make([][]int, batchItems)
	for s := range perms {
		perms[s] = rng.Perm(nb)
	}
	for b := 0; b < nb; b++ {
		bad := rng.Intn(batchItems)
		var req server.BatchRequest
		for i, s := range rng.Perm(batchItems) {
			n := len(w.items)
			src := drawn[s*nb+perms[s][b]]
			if i == bad {
				src = append(src[:len(src):len(src)], fmt.Sprintf(breakers[b%len(breakers)], n)...)
			}
			it := source{name: fmt.Sprintf("item%04d.c", n), src: src}
			w.items = append(w.items, it)
			w.broken = append(w.broken, i == bad)
			var er server.EstimateRequest
			er.Name, er.Source = it.name, string(it.src)
			req.Items = append(req.Items, er)
		}
		c, err := jsonCall("batch", "/v1/batch", b, req)
		if err != nil {
			return nil, err
		}
		w.batches = append(w.batches, c)
	}
	fill := stratified(rng, cacheUnits, 8, func([]byte) bool { return true })
	for b := 0; b < cacheUnits/batchItems; b++ {
		var req server.BatchRequest
		for i := 0; i < batchItems; i++ {
			var it server.EstimateRequest
			it.Name = fmt.Sprintf("fill%02d.c", b*batchItems+i)
			it.Source = string(fill[b*batchItems+i])
			req.Items = append(req.Items, it)
		}
		c, err := jsonCall("batch", "/v1/batch", -1, req)
		if err != nil {
			return nil, err
		}
		w.warmups = append(w.warmups, c)
	}
	for len(w.sample) < batchSamples {
		w.sample[int64(rng.Intn(batchSampleFrom))] = true
	}
	return w, nil
}

// warm fills the unit cache with distinct programs that the timed phase
// never sends.
func (w *batchCold) warm(cl *client, _ bool) error {
	for i := range w.warmups {
		if _, err := expectOK(cl, &w.warmups[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *batchCold) next(int) *call {
	n := w.seq.Add(1) - 1
	c := w.batches[n%int64(len(w.batches))]
	c.seq = n
	return &c
}

func (w *batchCold) schedule(time.Duration) ([]arrival, error) { return nil, nil }

// check only looks at the status: the sampled replies are checked after
// the timed phase, so no checking work competes with the server.
func (w *batchCold) check(c *call, status int, body []byte) error {
	if status != http.StatusOK {
		return statusErr(c, status, body)
	}
	if w.sample[c.seq] {
		w.mu.Lock()
		w.kept[c.seq] = bytes.Clone(body)
		w.mu.Unlock()
	}
	return nil
}

// batchReply is the decoded POST /v1/batch reply.
type batchReply struct {
	Count int `json:"count"`
	Items []struct {
		Index    int             `json:"index"`
		Status   int             `json:"status"`
		Estimate json.RawMessage `json:"estimate"`
		Error    string          `json:"error"`
	} `json:"items"`
}

// checkCache: every item must miss.
func (w *batchCold) checkCache(hits, misses int64) error {
	if hits > 0 {
		return fmt.Errorf("batch-cold: %d cache hits next to %d misses: items must all miss", hits, misses)
	}
	return nil
}

func (w *batchCold) verify(*client) (attempted, failed int, errs []error) {
	if len(w.kept) < len(w.sample) {
		errs = append(errs, fmt.Errorf("only %d of %d sampled batches were sent", len(w.kept), len(w.sample)))
		failed++
	}
	for seq, body := range w.kept {
		if err := w.verifyBatch(int(seq%int64(len(w.batches))), body); err != nil {
			failed++
			errs = append(errs, fmt.Errorf("batch %d: %w", seq, err))
		}
	}
	return 0, failed, errs
}

// verifyBatch checks one batch reply item by item against the library:
// good items carry the library's estimate, broken items carry the
// library's compile error with status 422.
func (w *batchCold) verifyBatch(b int, body []byte) error {
	var rep batchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if rep.Count != batchItems || len(rep.Items) != batchItems {
		return fmt.Errorf("reply has %d items, want %d", len(rep.Items), batchItems)
	}
	for i, it := range rep.Items {
		k := b*batchItems + i
		s := w.items[k]
		if it.Index != i {
			return fmt.Errorf("item %d carries index %d", i, it.Index)
		}
		if w.broken[k] {
			_, cerr := staticest.Compile(s.name, s.src)
			if cerr == nil {
				return fmt.Errorf("broken item %s compiles with the library", s.name)
			}
			if it.Status != http.StatusUnprocessableEntity || !strings.Contains(it.Error, cerr.Error()) {
				return fmt.Errorf("broken item %s: status %d error %q, want 422 with %q",
					s.name, it.Status, it.Error, cerr.Error())
			}
			continue
		}
		want, err := expectEstimate(s.name, s.src)
		if err == nil && it.Status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", it.Status, it.Error)
		}
		if err == nil {
			err = checkEstimate(it.Estimate, want)
		}
		if err != nil {
			return fmt.Errorf("item %s: %w", s.name, err)
		}
	}
	return nil
}

// replay: every item misses, so each is fingerprinted, compiled,
// estimated and encoded; a broken item stops at the layer that rejects
// it. With one caller, no other request holds a worker slot, so the
// server runs every batch on GOMAXPROCS batch workers; the replay runs
// the items on as many lanes.
func (w *batchCold) replay(r *replayer, c *call, parent int64) {
	var req server.BatchRequest
	if r.decode(parent, c.body, &req) != nil {
		return
	}
	r.lanes(min(len(req.Items), runtime.GOMAXPROCS(0)), len(req.Items), func(lr *replayer, i int) {
		src := []byte(req.Items[i].Source)
		fp := lr.fingerprint(parent, src)
		u, err := lr.compile(parent, req.Items[i].Name, src)
		if err != nil {
			return
		}
		est := lr.estimate(parent, u)
		lr.encode(parent, estimateResponse(u, est, fp))
	})
}

// callers: one. With two, the server's batch dispatch, which claims idle
// worker slots when a batch starts, makes the loop settle for seconds at
// a time either into two batches on one slot each or into one batch on
// both slots; the two differ by up to a third in throughput.
func (w *batchCold) callers(int) int { return 1 }

func (w *batchCold) replaySetup(*replayer, int) ([]span, error) { return nil, nil }
