package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// This file is the batch estimation endpoint: POST /v1/batch compiles
// and estimates many sources in one request, amortizing the
// per-request overhead (connection, routing, middleware, semaphore)
// over the whole batch. Items are independent: a source that fails to
// compile yields a per-item error object, never a failed batch, and
// every item resolves through the same compiled-unit cache and
// response memo as /v1/estimate — so a batch item's payload is
// byte-identical to the single-call response for the same (source,
// options) pair (internal/check.BatchOracle pins this).

// maxBatchItems caps the item count of one POST /v1/batch request;
// larger batches get 413.
const maxBatchItems = 256

// batchItemFrame is room for the JSON around one item of a batch reply,
// or around the whole reply.
const batchItemFrame = 64

// BatchRequest asks for estimates of many programs at once. Each item
// is a full EstimateRequest, so items can mix suite programs and inline
// sources with per-item options.
type BatchRequest struct {
	Items []EstimateRequest `json:"items"`
}

// batchResult is one item's outcome while the batch is in flight.
type batchResult struct {
	status int
	body   []byte // encoded estimate body (memoized form) when status == 200
	errMsg string
}

// handleBatch serves POST /v1/batch. The response is hand-assembled
// JSON: each successful item embeds the exact memoized bytes that
// /v1/estimate would serve for it (minus the trailing newline), which
// is what makes per-item byte equality a checkable contract rather
// than a formatting accident.
func (s *Server) handleBatch(r *http.Request) (any, error) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	n := len(req.Items)
	if n == 0 {
		return nil, errUnprocessable(`batch needs at least one entry in "items"`)
	}
	if n > maxBatchItems {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("batch of %d items exceeds the %d-item limit", n, maxBatchItems)}
	}
	s.batchItems.Add(int64(n))

	results := make([]batchResult, n)
	s.runBatch(r.Context(), req.Items, results)

	// The reply is grown once: each item's framing (index, status, key
	// names) fits in batchItemFrame bytes beside its body or message, and
	// a message escapes to little more than its own length.
	errCount := 0
	size := batchItemFrame
	for i := range results {
		if results[i].status != http.StatusOK {
			errCount++
		}
		size += batchItemFrame + len(results[i].body) + len(results[i].errMsg)
	}
	s.batchItemErrors.Add(int64(errCount))

	var b bytes.Buffer
	b.Grow(size)
	fmt.Fprintf(&b, "{\n  \"count\": %d,\n  \"errors\": %d,\n  \"items\": [", n, errCount)
	for i := range results {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		res := &results[i]
		if res.status == http.StatusOK {
			fmt.Fprintf(&b, `{"index":%d,"status":200,"estimate":`, i)
			b.Write(bytes.TrimRight(res.body, "\n"))
			b.WriteByte('}')
		} else {
			msg, err := json.Marshal(res.errMsg)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, `{"index":%d,"status":%d,"error":%s}`, i, res.status, msg)
		}
	}
	b.WriteString("\n  ]\n}\n")
	return rawJSON(b.Bytes()), nil
}

// runBatch fills results[i] for every item, fanning out over a bounded
// worker pool. The batch request already holds one semaphore slot (the
// api middleware acquired it), which drives the first worker; extra
// workers claim additional free slots non-blockingly, so intra-batch
// parallelism uses idle capacity without ever queueing ahead of other
// requests — a saturated server degrades a batch to sequential
// processing instead of starving single calls. Claimed slots are
// released when the batch finishes.
func (s *Server) runBatch(ctx context.Context, items []EstimateRequest, results []batchResult) {
	workers := 1
	maxWorkers := len(items)
	if maxWorkers > s.cfg.MaxConcurrent {
		maxWorkers = s.cfg.MaxConcurrent
	}
	extra := 0
	for workers < maxWorkers {
		select {
		case s.sem <- struct{}{}:
			extra++
			workers++
			continue
		default:
		}
		break
	}
	defer func() {
		for i := 0; i < extra; i++ {
			<-s.sem
		}
	}()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = s.estimateItem(ctx, &items[i])
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// estimateItem resolves one batch item through the unit cache and the
// response memo, mapping failures to the status the equivalent single
// call would get.
func (s *Server) estimateItem(ctx context.Context, item *EstimateRequest) batchResult {
	if err := ctx.Err(); err != nil {
		return batchResult{status: http.StatusServiceUnavailable, errMsg: "cancelled: " + err.Error()}
	}
	name, src, _, err := item.resolve()
	if err != nil {
		return batchErr(err)
	}
	c, err := s.compileCached(ctx, name, src)
	if err != nil {
		return batchErr(err)
	}
	body, err := s.estimateBody(ctx, c, item)
	if err != nil {
		return batchErr(err)
	}
	return batchResult{status: http.StatusOK, body: body}
}

// batchErr maps an item error to the per-item status exactly as the api
// middleware maps the same error for a single call.
func batchErr(err error) batchResult {
	return batchResult{status: statusOf(err), errMsg: err.Error()}
}
