package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, so span timings and
// event timestamps are fully deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestObserver(sink EventSink) *Observer {
	c := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	return New(WithSink(sink), WithClock(c.now))
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	sp := o.StartSpan("x", KV("k", 1))
	sp.SetAttr("k2", 2)
	child := sp.Child("y")
	child.End()
	sp.End()
	o.Counter("c").Add(5)
	if v := o.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	o.Gauge("g").Set(3.5)
	if v := o.Gauge("g").Value(); v != 0 {
		t.Fatalf("nil gauge value = %g", v)
	}
	o.Flush()
	if s := o.Exposition(); s != "" {
		t.Fatalf("nil exposition = %q", s)
	}
	if o.SpanHistogram("x") != nil {
		t.Fatal("nil observer returned a live span histogram")
	}
	if d := o.StartSpan("x").End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
}

// TestSpanHistogram pins the one timing mechanism: End returns the
// span's duration and observes it into span_seconds{span=<name>}, and
// a pre-registered family is exposed before any span of it ends.
func TestSpanHistogram(t *testing.T) {
	o := newTestObserver(nil)
	sp := o.StartSpan("compile")
	if d := sp.End(); d != time.Millisecond {
		t.Fatalf("End = %v, want the fake clock's 1ms", d)
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	h := o.SpanHistogram("compile")
	if h != o.Histogram(Labels("span_seconds", "span", "compile")) {
		t.Fatal("span histogram is not the registry's span_seconds series")
	}
	if h.Count() != 1 || h.Sum() != 0.001 {
		t.Fatalf("span histogram count/sum = %d/%v, want 1/0.001", h.Count(), h.Sum())
	}
	o.SpanHistogram("server.estimate")
	if exp := o.Exposition(); !strings.Contains(exp, `span_seconds_count{span="server.estimate"} 0`+"\n") {
		t.Errorf("pre-registered span family missing from exposition:\n%s", exp)
	}

	// Ending a span of a known name must not need Observer.mu.
	o.mu.Lock()
	done := make(chan struct{})
	go func() {
		o.StartSpan("compile").End()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("Span.End of a known name blocked on Observer.mu")
	}
	o.mu.Unlock()
	<-done
	if h.Count() != 2 {
		t.Errorf("span histogram count = %d, want 2", h.Count())
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	o := newTestObserver(NewJSONLSink(&buf))

	root := o.StartSpan("pipeline", KV("prog", "p.c"))
	comp := root.Child("compile")
	parse := comp.Child("parse")
	parse.End()
	sema := comp.Child("analyze")
	sema.End()
	comp.End()
	run := root.Child("run")
	run.End()
	root.End()

	var events []Event
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	// Events arrive in end order: leaves before their parents.
	wantNames := []string{"parse", "analyze", "compile", "run", "pipeline"}
	if len(events) != len(wantNames) {
		t.Fatalf("got %d events, want %d", len(events), len(wantNames))
	}
	byName := map[string]Event{}
	for i, e := range events {
		if e.Name != wantNames[i] {
			t.Errorf("event %d = %q, want %q", i, e.Name, wantNames[i])
		}
		if e.Type != "span" {
			t.Errorf("event %q type = %q", e.Name, e.Type)
		}
		byName[e.Name] = e
	}
	// Parent links reconstruct the tree.
	if byName["parse"].Parent != byName["compile"].ID ||
		byName["analyze"].Parent != byName["compile"].ID {
		t.Error("compile children have wrong parent")
	}
	if byName["compile"].Parent != byName["pipeline"].ID ||
		byName["run"].Parent != byName["pipeline"].ID {
		t.Error("pipeline children have wrong parent")
	}
	if byName["pipeline"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["pipeline"].Parent)
	}
	// A parent starts no later and ends no earlier than its children.
	for _, child := range []string{"parse", "analyze"} {
		c, p := byName[child], byName["compile"]
		if c.StartUS < p.StartUS {
			t.Errorf("%s starts before its parent", child)
		}
		if c.StartUS+c.DurUS > p.StartUS+p.DurUS {
			t.Errorf("%s ends after its parent", child)
		}
	}
	if byName["pipeline"].Attrs["prog"] != "p.c" {
		t.Errorf("root attrs = %v", byName["pipeline"].Attrs)
	}
	// Double End is idempotent.
	root.End()
	if buf.Len() != 0 {
		t.Error("second End emitted an event")
	}
}

func TestCounterAggregation(t *testing.T) {
	o := New()
	c := o.Counter("widgets_total")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
			// Concurrent lookup must return the same counter.
			o.Counter("widgets_total").Add(1)
		}()
	}
	wg.Wait()
	if v := c.Value(); v != 8*1001 {
		t.Fatalf("counter = %d, want %d", v, 8*1001)
	}
	o.Gauge("level").Set(2.5)
	o.Gauge("level").Set(7.25)
	if v := o.Gauge("level").Value(); v != 7.25 {
		t.Fatalf("gauge = %g, want 7.25", v)
	}
}

// TestJSONLGolden pins the exact JSONL schema: field names, ordering,
// and omission rules. The fake clock ticks 1ms per reading, so every
// timestamp is a fixed multiple of 1000us.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	o := newTestObserver(NewJSONLSink(&buf))

	// Clock readings: New()=1ms(start). span start=2ms. child start=3ms,
	// child end=4ms. span end=5ms. Flush reads 6ms.
	sp := o.StartSpan("load", KV("prog", "gcc"))
	ch := sp.Child("run")
	ch.End()
	sp.End()
	o.Counter("runs_total").Add(3)
	o.Gauge("density").Set(0.5)
	o.Flush()

	// Flush ends with each span name's latency histogram. Its quantiles
	// interpolate inside a bucket, so * stands for their digits (the
	// quantile math has its own tests); every other byte is pinned.
	want := []string{
		`{"type":"span","name":"run","id":2,"parent":1,"start_us":2000,"dur_us":1000}`,
		`{"type":"span","name":"load","id":1,"start_us":1000,"dur_us":3000,"attrs":{"prog":"gcc"}}`,
		`{"type":"gauge","name":"density","start_us":5000,"value":0.5}`,
		`{"type":"counter","name":"runs_total","start_us":5000,"value":3}`,
		`{"type":"histogram","name":"span_seconds{span=\"load\"}","start_us":5000,"value":1,"attrs":{"p50":*,"p90":*,"p99":*,"p999":*,"sum":0.003}}`,
		`{"type":"histogram","name":"span_seconds{span=\"run\"}","start_us":5000,"value":1,"attrs":{"p50":*,"p90":*,"p99":*,"p999":*,"sum":0.001}}`,
		``,
	}
	got := strings.Split(buf.String(), "\n")
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		re := "^" + strings.ReplaceAll(regexp.QuoteMeta(want[i]), `\*`, `[0-9.e-]+`) + "$"
		ok = regexp.MustCompile(re).MatchString(got[i])
	}
	if !ok {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), strings.Join(want, "\n"))
	}
}

func TestExpositionFormat(t *testing.T) {
	o := newTestObserver(nil)
	o.Counter("interp_blocks_executed_total").Add(42)
	o.Counter(Labels("eval_runs_total", "prog", "gcc")).Add(2)
	o.Counter(Labels("eval_runs_total", "prog", "awk")).Add(1)
	o.Gauge("probes_arc_reduction").Set(0.375)
	sp := o.StartSpan("compile")
	sp.End()

	var sb strings.Builder
	want := strings.Join([]string{
		`# TYPE eval_runs_total counter`,
		`eval_runs_total{prog="awk"} 1`,
		`eval_runs_total{prog="gcc"} 2`,
		`# TYPE interp_blocks_executed_total counter`,
		`interp_blocks_executed_total 42`,
		`# TYPE probes_arc_reduction gauge`,
		`probes_arc_reduction 0.375`,
		`# TYPE span_seconds histogram`,
	}, "\n") + "\n"
	// The 1ms span counts in every bucket from le="0.001" (bucket 30) up.
	for i, le := range histLabels {
		n := 0
		if i >= 30 {
			n = 1
		}
		fmt.Fprintf(&sb, "span_seconds_bucket{span=\"compile\",le=%q} %d\n", le, n)
	}
	want += sb.String() + `span_seconds_sum{span="compile"} 0.001` + "\n" +
		`span_seconds_count{span="compile"} 1` + "\n"
	if got := o.Exposition(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("m_total"); got != "m_total" {
		t.Errorf("no pairs: %q", got)
	}
	if got := Labels("m_total", "a", "1", "b", "x\"y"); got != `m_total{a="1",b="x\"y"}` {
		t.Errorf("pairs: %q", got)
	}
	if got := Labels("m_total", "odd"); got != "m_total" {
		t.Errorf("odd pair: %q", got)
	}
}

func TestConcurrentSinkAndSpans(t *testing.T) {
	var buf bytes.Buffer
	o := New(WithSink(NewJSONLSink(&buf)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := o.StartSpan("work")
				sp.Child("inner").End()
				sp.End()
				o.Counter("ops_total").Add(1)
			}
		}(g)
	}
	wg.Wait()
	// Every line must be valid JSON (no interleaved writes).
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 8*50*2 {
		t.Fatalf("got %d events, want %d", len(lines), 8*50*2)
	}
	for _, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("corrupt JSONL line %q: %v", ln, err)
		}
	}
	if v := o.Counter("ops_total").Value(); v != 400 {
		t.Fatalf("ops_total = %d", v)
	}
}

// --- micro-benchmarks -------------------------------------------------------

func BenchmarkNilObserverSpan(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StartSpan("x")
		sp.End()
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var o *Observer
	c := o.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	o := New()
	c := o.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StartSpan("x")
		sp.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("x_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var o *Observer
	h := o.Histogram("x_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func TestGaugeAdd(t *testing.T) {
	o := New()
	g := o.Gauge("inflight")
	g.Add(2)
	g.Add(-0.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Gauge.Add: got %v, want 1.5", got)
	}

	// Concurrent adds must not lose increments.
	var wg sync.WaitGroup
	g.Set(0)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(1)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8 {
		t.Fatalf("concurrent Gauge.Add: got %v, want 8", got)
	}

	var nilG *Gauge
	nilG.Add(1) // must not panic
}
