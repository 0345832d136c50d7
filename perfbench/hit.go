package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"staticest/internal/server"
	"staticest/internal/suite"
)

// hotGenerated is the number of generated programs in estimate-hit's hot
// set, next to the 14 suite programs. 32 sources fit the default
// 64-unit cache even when its two shards split them unevenly.
const hotGenerated = 18

// Generated hot-set sources are drawn from this size range, the range of
// the suite programs, one kept per hotStrata draws (see stratified).
const (
	hotMinBytes, hotMaxBytes = 2 << 10, 12 << 10
	hotStrata                = 10
)

// source is one inline C source a request ships.
type source struct {
	name string
	src  []byte
}

// estimateHit is a closed loop of POST /v1/estimate over a hot set that
// the server keeps compiled and memoized after set-up.
type estimateHit struct {
	srcs  []source
	calls []call
	rngs  []*rand.Rand // one per caller
	// refs holds the first set-up's reply per source; every later reply
	// must equal it byte for byte, and verify checks it against the
	// library.
	refs [][]byte
	// served counts the timed replies per source, so that a wrong
	// reference fails every reply that equalled it.
	served []atomic.Int64
}

func newEstimateHit(seed int64, nproc int) (*estimateHit, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &estimateHit{}
	for _, p := range suite.Programs() {
		w.srcs = append(w.srcs, source{name: p.Name + ".c", src: []byte(p.Source)})
	}
	inRange := func(src []byte) bool { return len(src) >= hotMinBytes && len(src) <= hotMaxBytes }
	for _, src := range stratified(rng, hotGenerated, hotStrata, inRange) {
		w.srcs = append(w.srcs, source{name: fmt.Sprintf("hot%02d.c", len(w.srcs)), src: src})
	}
	for i, s := range w.srcs {
		var req server.EstimateRequest
		req.Name, req.Source = s.name, string(s.src)
		c, err := jsonCall("estimate", "/v1/estimate", i, req)
		if err != nil {
			return nil, err
		}
		w.calls = append(w.calls, c)
	}
	for i := 0; i < nproc; i++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(rng.Int63())))
	}
	w.refs = make([][]byte, len(w.srcs))
	w.served = make([]atomic.Int64, len(w.srcs))
	return w, nil
}

func (w *estimateHit) warm(cl *client, first bool) error {
	for i := range w.calls {
		body, err := expectOK(cl, &w.calls[i])
		if err != nil {
			return err
		}
		if first {
			w.refs[i] = bytes.Clone(body)
		} else if !bytes.Equal(body, w.refs[i]) {
			return fmt.Errorf("set-up estimate of %s differs from the first set-up's", w.srcs[i].name)
		}
	}
	return nil
}

func (w *estimateHit) next(caller int) *call {
	return &w.calls[w.rngs[caller].Intn(len(w.calls))]
}

func (w *estimateHit) schedule(time.Duration) ([]arrival, error) { return nil, nil }

func (w *estimateHit) check(c *call, status int, body []byte) error {
	w.served[c.item].Add(1)
	if status != http.StatusOK {
		return statusErr(c, status, body)
	}
	if !bytes.Equal(body, w.refs[c.item]) {
		return fmt.Errorf("estimate of %s differs from its first reply", w.srcs[c.item].name)
	}
	return nil
}

// checkCache: every request must hit. The hot set fits the default cache
// when GOMAXPROCS is small; with eight or more shards of eight units, the
// fingerprints can overflow a shard, and the run fails here instead of
// quietly timing compiles.
func (w *estimateHit) checkCache(hits, misses int64) error {
	if misses > 0 {
		return fmt.Errorf("estimate-hit: %d cache misses next to %d hits: the hot set does not stay in the server's cache", misses, hits)
	}
	return nil
}

func (w *estimateHit) verify(*client) (attempted, failed int, errs []error) {
	for i, s := range w.srcs {
		want, err := expectEstimate(s.name, s.src)
		if err == nil {
			err = checkEstimate(w.refs[i], want)
		}
		if err != nil {
			failed += int(w.served[i].Load())
			errs = append(errs, fmt.Errorf("estimate of %s: %w", s.name, err))
		}
	}
	return 0, failed, errs
}

// replay: a hit decodes the request and fingerprints the source; the
// cache lookup and the memoized reply are the server's own work.
func (w *estimateHit) replay(r *replayer, c *call, parent int64) {
	var req server.EstimateRequest
	if r.decode(parent, c.body, &req) != nil {
		return
	}
	r.fingerprint(parent, []byte(req.Source))
}

func (w *estimateHit) replaySetup(*replayer, int) ([]span, error) { return nil, nil }

func (w *estimateHit) callers(nproc int) int { return nproc }
