package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"staticest/internal/obs"
)

// This file is the server's ops surface: request identity, the slow-
// request ring, GET /v1/debug/status, GET /v1/debug/slow, and the
// runtime sampler behind the runtime_* gauges.

// --- request identity -------------------------------------------------------

// requestID extracts the caller's request ID, preferring the W3C
// traceparent trace-id (00-<32 hex>-<16 hex>-<flags>) so the server
// joins an existing distributed trace, then X-Request-ID, and
// generating a fresh random ID otherwise. The ID is echoed back as
// X-Request-ID and attached to the request's root span, which makes a
// request's span tree findable in the JSONL trace by grepping for it.
func requestID(r *http.Request) string {
	if tp := r.Header.Get("traceparent"); tp != "" {
		if id, ok := traceparentID(tp); ok {
			return id
		}
	}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return sanitizeID(id)
	}
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// traceparentID pulls the trace-id field out of a traceparent header,
// rejecting malformed or all-zero (invalid per spec) IDs.
func traceparentID(tp string) (string, bool) {
	parts := strings.Split(tp, "-")
	if len(parts) < 3 || len(parts[1]) != 32 {
		return "", false
	}
	zero := true
	for i := 0; i < len(parts[1]); i++ {
		c := parts[1][i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", false
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return "", false
	}
	return parts[1], true
}

// sanitizeID bounds a caller-supplied ID and strips characters that
// would corrupt headers or JSONL (IDs are echoed verbatim otherwise).
func sanitizeID(id string) string {
	const maxLen = 64
	if len(id) > maxLen {
		id = id[:maxLen]
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			return r
		case r == '-' || r == '_' || r == '.':
			return r
		}
		return '_'
	}, id)
}

// statusWriter records the response status code so the middleware can
// count responses by status class after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// --- slow-request ring ------------------------------------------------------

// slowEntry is one retained request: identity, outcome, and the
// captured span subtree (rendered as a tree on demand, not at record
// time — most offered entries are discarded without rendering).
type slowEntry struct {
	ReqID    string `json:"req_id"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	DurUS    int64  `json:"dur_us"`

	capture *obs.SpanCapture
}

// slowRingSize is K, the number of slowest requests whose span trees
// GET /v1/debug/slow retains.
const slowRingSize = 16

// slowRing keeps the K slowest requests seen, sorted slowest-first.
// offer is O(K) worst case with K small and returns in O(1) for the
// common request that is faster than everything retained.
type slowRing struct {
	mu      sync.Mutex
	max     int
	entries []slowEntry
}

func newSlowRing(max int) *slowRing { return &slowRing{max: max} }

// offer proposes a finished request for retention.
func (sr *slowRing) offer(e slowEntry) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.entries) >= sr.max && e.DurUS <= sr.entries[len(sr.entries)-1].DurUS {
		return
	}
	i := sort.Search(len(sr.entries), func(i int) bool { return sr.entries[i].DurUS < e.DurUS })
	sr.entries = append(sr.entries, slowEntry{})
	copy(sr.entries[i+1:], sr.entries[i:])
	sr.entries[i] = e
	if len(sr.entries) > sr.max {
		sr.entries = sr.entries[:sr.max]
	}
}

// snapshot copies the retained entries, slowest first.
func (sr *slowRing) snapshot() []slowEntry {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]slowEntry(nil), sr.entries...)
}

// SpanNode is one span in a rendered request tree.
type SpanNode struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`
}

// spanTree reconstructs the span tree from captured end-order events
// by following parent links. The root is the (unique) span whose
// parent is not among the captured events — the request's own span.
func spanTree(events []obs.Event) *SpanNode {
	nodes := make(map[int64]*SpanNode, len(events))
	for _, e := range events {
		nodes[e.ID] = &SpanNode{Name: e.Name, StartUS: e.StartUS, DurUS: e.DurUS, Attrs: e.Attrs}
	}
	var root *SpanNode
	for _, e := range events {
		if parent, ok := nodes[e.Parent]; ok {
			parent.Children = append(parent.Children, nodes[e.ID])
		} else {
			root = nodes[e.ID]
		}
	}
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		sort.SliceStable(n.Children, func(a, b int) bool {
			return n.Children[a].StartUS < n.Children[b].StartUS
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	if root != nil {
		sortChildren(root)
	}
	return root
}

// SlowRequest is one GET /v1/debug/slow entry.
type SlowRequest struct {
	ReqID    string    `json:"req_id"`
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`
	DurUS    int64     `json:"dur_us"`
	Trace    *SpanNode `json:"trace,omitempty"`
}

// SlowResponse is the GET /v1/debug/slow reply: the span trees of the
// slowest requests the server has served, slowest first.
type SlowResponse struct {
	Capacity int           `json:"capacity"`
	Requests []SlowRequest `json:"requests"`
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	resp := &SlowResponse{Capacity: slowRingSize, Requests: []SlowRequest{}}
	for _, e := range s.slow.snapshot() {
		resp.Requests = append(resp.Requests, SlowRequest{
			ReqID:    e.ReqID,
			Endpoint: e.Endpoint,
			Status:   e.Status,
			DurUS:    e.DurUS,
			Trace:    spanTree(e.capture.Events()),
		})
	}
	writeDebugJSON(w, resp)
}

// --- GET /v1/debug/status ---------------------------------------------------

// CacheStatus summarizes the compiled-unit cache. Compile digests the
// "compile" span histogram.
type CacheStatus struct {
	Units    int         `json:"units"`
	Shards   int         `json:"shards"`
	Hits     int64       `json:"hits"`
	Misses   int64       `json:"misses"`
	HitRatio float64     `json:"hit_ratio"`
	Compile  obs.Summary `json:"compile_seconds"`
}

// BatchStatus summarizes the batch endpoint: items served through
// POST /v1/batch and how many of those yielded per-item errors.
type BatchStatus struct {
	Items      int64 `json:"items"`
	ItemErrors int64 `json:"item_errors"`
}

// IngestStatus summarizes the PGO ingest path.
type IngestStatus struct {
	Units   int              `json:"units"`
	Uploads int64            `json:"uploads"`
	Shed    int64            `json:"shed"`
	Rejects map[string]int64 `json:"rejects"`
}

// RuntimeStatus is the Go runtime snapshot.
type RuntimeStatus struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	GCRuns         uint32  `json:"gc_runs"`
	GCPauseSeconds float64 `json:"gc_pause_seconds_total"`
}

// StatusResponse is the GET /v1/debug/status reply: the one-page ops
// snapshot — is the cache working, is the fleet uploading, where are
// the latency percentiles, is the runtime healthy. Endpoints digests
// each endpoint's server.<endpoint> span histogram.
type StatusResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Cache         CacheStatus            `json:"cache"`
	Batch         BatchStatus            `json:"batch"`
	Ingest        IngestStatus           `json:"ingest"`
	Endpoints     map[string]obs.Summary `json:"endpoints"`
	Runtime       RuntimeStatus          `json:"runtime"`
}

func (s *Server) handleDebugStatus(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.hits.Value(), s.misses.Value()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	resp := &StatusResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Cache: CacheStatus{
			Units:    s.cache.len(),
			Shards:   s.cache.numShards(),
			Hits:     hits,
			Misses:   misses,
			HitRatio: ratio,
			Compile:  s.obs.SpanHistogram("compile").Summarize(),
		},
		Batch: BatchStatus{
			Items:      s.batchItems.Value(),
			ItemErrors: s.batchItemErrors.Value(),
		},
		Ingest: IngestStatus{
			Units:   s.ingest.Len(),
			Shed:    s.shed.Value(),
			Rejects: map[string]int64{},
		},
		Endpoints: map[string]obs.Summary{},
	}
	for name, v := range s.obs.Snapshot() {
		switch {
		case name == "ingest_uploads_total":
			resp.Ingest.Uploads = int64(v)
		case strings.HasPrefix(name, `ingest_rejects_total{reason="`):
			reason := strings.TrimSuffix(strings.TrimPrefix(name, `ingest_rejects_total{reason="`), `"}`)
			resp.Ingest.Rejects[reason] = int64(v)
		}
	}
	for _, ep := range s.endpoints {
		resp.Endpoints[ep] = s.obs.SpanHistogram("server." + ep).Summarize()
	}
	ms := s.sampleRuntime()
	resp.Runtime = RuntimeStatus{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		GCRuns:         ms.NumGC,
		GCPauseSeconds: float64(ms.PauseTotalNs) / 1e9,
	}
	writeDebugJSON(w, resp)
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// --- runtime sampler --------------------------------------------------------

// sampleRuntime refreshes the runtime_* gauges from the Go runtime and
// returns the one runtime.MemStats it read (the read stops the world).
// /metrics and /v1/debug/status call it per scrape, and Serve once
// after the drain, so an exit-time exposition or trace Flush carries
// fresh values.
func (s *Server) sampleRuntime() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.obs.Gauge("runtime_goroutines").Set(float64(runtime.NumGoroutine()))
	s.obs.Gauge("runtime_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	s.obs.Gauge("runtime_heap_sys_bytes").Set(float64(ms.HeapSys))
	s.obs.Gauge("runtime_gc_runs_total").Set(float64(ms.NumGC))
	s.obs.Gauge("runtime_gc_pause_seconds_total").Set(float64(ms.PauseTotalNs) / 1e9)
	return &ms
}
