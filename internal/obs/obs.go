// Package obs is the pipeline's observability layer: hierarchical timed
// spans, named counters, gauges and histograms, a JSONL event sink, and
// a Prometheus-style text exposition. Every entry point is safe on a
// nil *Observer, and the nil path does no allocation and takes no
// locks, so a pipeline compiled with observability disabled costs
// effectively nothing (BenchmarkInterpretCompress is an interpreter run
// with a nil Observer; BenchmarkObsEnabled is the same run with a live
// one).
//
// Spans are the one timing mechanism: each span's duration, when it
// ends, lands in the latency histogram span_seconds{span="<name>"}, so
// every traced phase is also a latency distribution, and callers read
// their percentiles from SpanHistogram instead of timing the same
// interval a second time.
//
// The layer is deliberately small: no sampling, no exporters, no
// global registry. A component receives an *Observer (usually via its
// Options or a façade handle), opens spans around its phases, and bumps
// counters for the quantities the evaluation cares about. Commands
// surface the data with -trace (JSONL events) and -metrics (text
// exposition); cmd/evaluate can additionally serve net/http/pprof and
// expvar for long runs.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Observer is the root handle of one observability domain. The zero
// value is not usable; construct with New. A nil *Observer is valid
// everywhere and disables all recording.
type Observer struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// spanHists indexes the span_seconds histograms of histograms by
	// bare span name (string -> *Histogram), so Span.End finds its
	// histogram without taking mu or building the labeled name.
	spanHists sync.Map
	sink      EventSink
	now       func() time.Time
	start     time.Time
	seq       atomic.Int64
}

// Option configures an Observer.
type Option func(*Observer)

// WithSink routes structured events (span completions, flushed counter,
// gauge and histogram values) to sink. Without a sink, spans still feed
// their span_seconds histograms.
func WithSink(sink EventSink) Option {
	return func(o *Observer) { o.sink = sink }
}

// WithClock substitutes the time source (deterministic tests).
func WithClock(now func() time.Time) Option {
	return func(o *Observer) { o.now = now }
}

// New creates an Observer.
func New(opts ...Option) *Observer {
	o := &Observer{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		now:        time.Now,
	}
	for _, opt := range opts {
		opt(o)
	}
	o.start = o.now()
	return o
}

// --- counters and gauges ----------------------------------------------------

// Counter is a monotonically increasing int64 metric. A nil *Counter
// (from a nil Observer) ignores all operations.
type Counter struct {
	name string
	v    atomic.Int64
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil Observer. Hot paths should look the counter up once and
// hold the pointer; Add is then a single atomic increment.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.counters[name]
	if !ok {
		c = &Counter{name: name}
		o.counters[name] = c
	}
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the last value set. A nil *Gauge
// ignores all operations.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil Observer.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		o.gauges[name] = g
	}
	return g
}

// Set records the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add shifts the gauge by delta (atomically; negative deltas allowed).
// It backs up/down quantities like in-flight request counts, where
// concurrent writers must not lose increments the way racing
// Value()+Set pairs would.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFromBits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Labels renders a metric name with label pairs in Prometheus form:
// Labels("x_total", "prog", "gcc") == `x_total{prog="gcc"}`. Pairs are
// key, value, key, value, ...; an odd trailing key is dropped. The
// result is an ordinary metric name — the exposition groups series of
// one base name under a single TYPE header.
func Labels(name string, pairs ...string) string {
	if len(pairs) < 2 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", pairs[i], pairs[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// --- exposition -------------------------------------------------------------

// WriteProm writes every counter, gauge, and histogram in the
// Prometheus text exposition format, sorted by series name for
// deterministic output. Histograms (span latencies among them, as
// span_seconds{span="x"}) follow the scalar series as cumulative
// <name>_bucket{le=…} ladders with <name>_sum and <name>_count, grouped
// under one "# TYPE <name> histogram" header per family.
func (o *Observer) WriteProm(w io.Writer) error {
	if o == nil {
		return nil
	}
	type series struct {
		name string // full series name incl. labels
		typ  string
		val  string
	}
	o.mu.Lock()
	all := make([]series, 0, len(o.counters)+len(o.gauges))
	for name, c := range o.counters {
		all = append(all, series{name, "counter", fmt.Sprintf("%d", c.Value())})
	}
	for name, g := range o.gauges {
		all = append(all, series{name, "gauge", formatFloat(g.Value())})
	}
	hists := make([]*Histogram, 0, len(o.histograms))
	for _, h := range o.histograms {
		hists = append(hists, h)
	}
	o.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	lastBase := ""
	for _, s := range all {
		base := s.name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base != lastBase {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, s.typ); err != nil {
				return err
			}
			lastBase = base
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.val); err != nil {
			return err
		}
	}

	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	lastBase = ""
	for _, h := range hists {
		base := h.name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base != lastBase {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
			lastBase = base
		}
		var cum int64
		for i := range h.counts {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(h.name, histLabels[i]), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(h.name, "_sum"), formatFloat(h.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(h.name, "_count"), cum); err != nil {
			return err
		}
	}
	return nil
}

// Exposition returns WriteProm output as a string ("" on nil).
func (o *Observer) Exposition() string {
	if o == nil {
		return ""
	}
	var sb strings.Builder
	o.WriteProm(&sb)
	return sb.String()
}

// formatFloat renders floats without exponent noise for round values.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot returns the current value of every counter and gauge, and
// the _count and _sum of every histogram, as a flat series-name → value
// map (nil on a nil Observer). cmd/evaluate publishes it through
// expvar.Func.
func (o *Observer) Snapshot() map[string]float64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := make(map[string]float64, len(o.counters)+len(o.gauges)+2*len(o.histograms))
	for name, c := range o.counters {
		m[name] = float64(c.Value())
	}
	for name, g := range o.gauges {
		m[name] = g.Value()
	}
	for name, h := range o.histograms {
		m[seriesName(name, "_count")] = float64(h.Count())
		m[seriesName(name, "_sum")] = h.Sum()
	}
	return m
}

// Flush emits the current value of every counter, gauge, and histogram
// digest to the sink (spans emit themselves as they end) and is a
// no-op without a sink. Commands call it once before rendering a trace
// so the JSONL stream carries final totals alongside the span tree.
func (o *Observer) Flush() {
	if o == nil || o.sink == nil {
		return
	}
	type kv struct {
		name  string
		typ   string
		val   float64
		attrs map[string]any
	}
	o.mu.Lock()
	all := make([]kv, 0, len(o.counters)+len(o.gauges)+len(o.histograms))
	for name, c := range o.counters {
		all = append(all, kv{name: name, typ: "counter", val: float64(c.Value())})
	}
	for name, g := range o.gauges {
		all = append(all, kv{name: name, typ: "gauge", val: g.Value()})
	}
	for name, h := range o.histograms {
		s := h.Summarize()
		all = append(all, kv{name: name, typ: "histogram", val: float64(s.Count),
			attrs: map[string]any{"sum": s.Sum, "p50": s.P50, "p90": s.P90, "p99": s.P99, "p999": s.P999}})
	}
	o.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	now := o.sinceStartUS(o.now())
	for _, s := range all {
		o.sink.Emit(Event{Type: s.typ, Name: s.name, StartUS: now, Value: s.val, Attrs: s.attrs})
	}
}

func (o *Observer) sinceStartUS(t time.Time) int64 {
	return t.Sub(o.start).Microseconds()
}
