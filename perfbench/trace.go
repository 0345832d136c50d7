package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's epoch. Spans of one request share Req; Parent is 0
// for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's work count where the layer has one (tokens,
	// blocks, instructions, interpreter steps), else 0.
	N int64 `json:"n,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reqHeader carries the client span's ID to the handler wrapper; the
// server accepts it as the request ID and echoes it back.
const reqHeader = "X-Request-ID"

func clientReqID(spanID int64) string { return "bench-" + strconv.FormatInt(spanID, 10) }

// wrap times Server.Handler().ServeHTTP as a "server" span whose parent
// is the client span named by the request's ID header.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		req := r.Header.Get(reqHeader)
		parent, _ := strconv.ParseInt(strings.TrimPrefix(req, "bench-"), 10, 64)
		t.add(span{ID: t.newID(), Parent: parent, Name: "server", Req: req, Start: start, End: end})
	})
}

// timed runs fn as span name under parent and records it; fn returns the
// span's work count.
func (t *tracer) timed(out *[]span, req, name string, parent int64, fn func() int64) {
	t.timedAs(out, t.newID(), req, name, parent, fn)
}

// timedAs is timed with a preallocated span ID, so that spans of inner
// layers can name this span as their parent before it runs.
func (t *tracer) timedAs(out *[]span, id int64, req, name string, parent int64, fn func() int64) {
	start := t.now()
	n := fn()
	end := t.now()
	*out = append(*out, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end, N: n})
}

// selfTime is a span's duration minus the length of the union of its
// children's intervals. A child need not lie inside its parent: replayed
// layers run after the request they replay, and an inner layer is timed
// just before the outer call that repeats its work. The union counts
// each instant once, so overlapping children are not double counted. A
// negative result means the children did more work than the parent.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - coverage(children)
}

// coverage is the length of the union of the spans' intervals.
func coverage(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, c := range spans {
		iv[i] = [2]int64{c.Start, c.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] <= cur[1] {
			if x[1] > cur[1] {
				cur[1] = x[1]
			}
			continue
		}
		covered += cur[1] - cur[0]
		cur = x
	}
	covered += cur[1] - cur[0]
	return covered
}

// layerStat accumulates one span name's self time and work over the
// replayed sample.
type layerStat struct {
	Calls int
	Self  int64 // ns, summed
	Work  int64 // summed work counts
	Neg   int   // spans whose self time came out negative
}

// selfTimes computes every span's self time and sums them by span name.
func selfTimes(spans []span) map[string]*layerStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		self := selfTime(s, kids[s.ID])
		st.Calls++
		st.Self += self
		st.Work += s.N
		if self < 0 {
			st.Neg++
		}
	}
	return out
}

// writeJSONL writes spans, one JSON object per line, sorted by start.
func writeJSONL(path string, spans []span) error {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
