package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"staticest/internal/obs"
)

// TestPanicRecovery proves the middleware turns a handler panic into a
// 500 JSON error, bumps server_panics_total, and leaves the inflight
// gauge balanced — the server must survive its own bugs. The reply
// names the panic but not the stack, whose frames carry source paths;
// the stack stays on the request's span, where /v1/debug/slow shows it.
func TestPanicRecovery(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o})
	h := s.api("boom", func(_ *http.Request) (any, error) {
		panic("kaboom")
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/boom", strings.NewReader("{}")))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"error"`) || !strings.Contains(body, "internal error: kaboom") {
		t.Errorf("body %q does not report the panic", body)
	}
	if strings.Contains(body, "goroutine ") || strings.Contains(body, ".go:") {
		t.Errorf("body %q carries the stack", body)
	}
	slow := httptest.NewRecorder()
	s.handleDebugSlow(slow, httptest.NewRequest("GET", "/v1/debug/slow", nil))
	var resp SlowResponse
	if err := json.Unmarshal(slow.Body.Bytes(), &resp); err != nil || len(resp.Requests) != 1 || resp.Requests[0].Trace == nil {
		t.Fatalf("debug/slow: %v, %s", err, slow.Body)
	}
	if st, _ := resp.Requests[0].Trace.Attrs["panic_stack"].(string); !strings.Contains(st, "goroutine ") {
		t.Errorf("request span's panic_stack = %q, want the stack", st)
	}
	if n := o.Counter("server_panics_total").Value(); n != 1 {
		t.Errorf("server_panics_total = %d, want 1", n)
	}
	if v := o.Gauge("server_inflight").Value(); v != 0 {
		t.Errorf("server_inflight = %v after panic, want 0", v)
	}
	if n := o.Counter(obs.Labels("server_errors_total", "endpoint", "boom")).Value(); n != 1 {
		t.Errorf("server_errors_total = %d, want 1", n)
	}
}

// TestLoadShedding pins the saturation contract: with every worker
// slot held, a request waits at most QueueWait and is then shed with
// 429 + Retry-After (never queued indefinitely), server_shed_total is
// bumped, and a request arriving after a slot frees succeeds.
func TestLoadShedding(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o, MaxConcurrent: 1, QueueWait: 30 * time.Millisecond})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	h := s.api("slow", func(_ *http.Request) (any, error) {
		entered <- struct{}{}
		<-release
		return map[string]string{"status": "done"}, nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, httptest.NewRequest("POST", "/v1/slow", strings.NewReader("{}")))
	}()
	<-entered // the only worker slot is now held

	shedStart := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/slow", strings.NewReader("{}")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request got status %d, want 429", rec.Code)
	}
	if waited := time.Since(shedStart); waited > 5*time.Second {
		t.Fatalf("shed took %v — request queued far past QueueWait", waited)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	if !strings.Contains(rec.Body.String(), "saturated") {
		t.Errorf("shed body %q does not explain saturation", rec.Body.String())
	}
	if n := o.Counter("server_shed_total").Value(); n != 1 {
		t.Errorf("server_shed_total = %d, want 1", n)
	}

	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("slot-holding request got status %d, want 200", first.Code)
	}
	// The slot is free and release is closed, so a fresh request enters
	// the handler and returns immediately: it must not be shed.
	recovered := httptest.NewRecorder()
	h.ServeHTTP(recovered, httptest.NewRequest("POST", "/v1/slow", strings.NewReader("{}")))
	<-entered
	if recovered.Code != http.StatusOK {
		t.Fatalf("post-recovery request got status %d, want 200", recovered.Code)
	}
	if n := o.Counter("server_shed_total").Value(); n != 1 {
		t.Errorf("server_shed_total = %d after recovery, want still 1", n)
	}
}

// TestCacheErrorNotCached pins that failed compiles are never inserted:
// a retry recompiles (two misses), and the cache stays empty.
func TestCacheErrorNotCached(t *testing.T) {
	s := New(Config{Obs: obs.New()})
	bad := []byte("int main(void { return 0; }")
	for i := 0; i < 2; i++ {
		if _, err := s.compileCached(context.Background(), "bad.c", bad); err == nil {
			t.Fatal("compile of invalid source succeeded")
		}
	}
	if n := s.misses.Value(); n != 2 {
		t.Errorf("misses = %d, want 2 (errors must not be cached)", n)
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("cache holds %d units after failed compiles, want 0", n)
	}
}

// TestSlowRing pins the slow ring's retention policy: it keeps the K
// slowest requests sorted slowest-first, a slower arrival evicts the
// fastest retained one, a request no slower than every retained one
// is rejected without reordering, and snapshot returns a copy.
func TestSlowRing(t *testing.T) {
	sr := newSlowRing(3)
	ids := func() []string {
		var out []string
		for _, e := range sr.snapshot() {
			out = append(out, e.ReqID)
		}
		return out
	}
	for _, d := range []int64{20, 50, 10, 40} {
		sr.offer(slowEntry{ReqID: strconv.FormatInt(d, 10), DurUS: d})
	}
	if got, want := ids(), []string{"50", "40", "20"}; !slices.Equal(got, want) {
		t.Fatalf("ring = %v, want %v (10 evicted by 40)", got, want)
	}
	sr.offer(slowEntry{ReqID: "fast", DurUS: 5})
	sr.offer(slowEntry{ReqID: "tie", DurUS: 20})
	if got, want := ids(), []string{"50", "40", "20"}; !slices.Equal(got, want) {
		t.Fatalf("ring = %v after fast offers, want %v unchanged", got, want)
	}
	snap := sr.snapshot()
	snap[0].ReqID = "mutated"
	if got := ids()[0]; got != "50" {
		t.Errorf("snapshot aliases the ring: slowest is now %q", got)
	}
}
