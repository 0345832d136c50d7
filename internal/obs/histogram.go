package obs

import (
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram bucket scheme: log-spaced bounds covering 1µs to ~79s when
// observations are seconds (the unit every serving-path histogram
// uses), ten buckets per decade. The relative quantile error is bounded
// by one bucket's width (10^0.1 ≈ 1.26, i.e. ~13%), which separates
// p99 from p999 comfortably while keeping a histogram at 81 atomic
// words. Values at or below histMinBound land in bucket 0; values past
// the last finite bound land in the +Inf overflow bucket.
const (
	histMinBound     = 1e-6
	bucketsPerDecade = 10
	numFiniteBuckets = 80
)

// histBounds[i] is the inclusive upper bound of finite bucket i;
// histLabels[i] is its pre-rendered le label (overflow is "+Inf").
var (
	histBounds [numFiniteBuckets]float64
	histLabels [numFiniteBuckets + 1]string
)

func init() {
	for i := range histBounds {
		histBounds[i] = histMinBound * math.Pow(10, float64(i)/bucketsPerDecade)
		histLabels[i] = strconv.FormatFloat(histBounds[i], 'g', 6, 64)
	}
	histLabels[numFiniteBuckets] = "+Inf"
}

// Histogram is a lock-free distribution metric: log-spaced buckets with
// atomic per-bucket counters, so concurrent Observe calls never
// contend on a lock and the hot path is one Log10 plus one atomic
// increment. Histograms of the same shape merge (fleet-side
// aggregation), estimate arbitrary quantiles, and render in the
// Prometheus histogram exposition (<name>_bucket{le=…}, <name>_sum,
// <name>_count). A nil *Histogram (from a nil Observer) ignores all
// operations, keeping the disabled pipeline zero-cost.
type Histogram struct {
	name    string
	counts  [numFiniteBuckets + 1]atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram outside any Observer; benchmarks use
// it to collect per-operation latencies. Anything that runs under an
// Observer times itself with spans and reads SpanHistogram instead.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil Observer. Hot paths look it up once and hold the
// pointer.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.histograms[name]
	if !ok {
		h = NewHistogram(name)
		o.histograms[name] = h
	}
	return h
}

// SpanHistogram returns the latency histogram that spans named span
// feed, span_seconds{span="<span>"}, registering it on first use so
// its family is exposed before the first such span ends. Returns nil on
// a nil Observer. Once the histogram exists, lookups take no lock.
func (o *Observer) SpanHistogram(span string) *Histogram {
	if o == nil {
		return nil
	}
	if h, ok := o.spanHists.Load(span); ok {
		return h.(*Histogram)
	}
	// Racing first lookups get the same histogram from the registry.
	h := o.Histogram(Labels("span_seconds", "span", span))
	o.spanHists.Store(span, h)
	return h
}

// bucketIndex maps a value to its bucket. NaN and negative values
// clamp to bucket 0 (durations are never negative; a garbage value
// must not index out of range). The 1e-9 slack absorbs the float error
// of Pow/Log10 round-tripping so a value exactly at a bucket's bound
// classifies into that bucket, not the next.
func bucketIndex(v float64) int {
	return LogBucketIndex(v, histMinBound, numFiniteBuckets)
}

// LogBucketIndex maps a value onto the shared log-spaced bucket ladder
// (ten buckets per decade, anchored at min): bucket 0 holds values at or
// below min, finite bucket i has inclusive upper bound min·10^(i/10),
// and values past bucket `finite` clamp to finite (callers treat that as
// their overflow bucket). The same 1e-9 slack as bucketIndex keeps
// values exactly at a bound in that bucket. This is the one ladder every
// histogram in the system shares — latency histograms here, and the
// reuse-distance histograms in internal/reuse (anchored at distance 1).
func LogBucketIndex(v, min float64, finite int) int {
	if !(v > min) {
		return 0
	}
	idx := int(math.Ceil(bucketsPerDecade*math.Log10(v/min) - 1e-9))
	if idx < 0 {
		return 0
	}
	if idx > finite {
		return finite
	}
	return idx
}

// LogBucketBound returns the inclusive upper bound of finite bucket i on
// the ladder anchored at min (the inverse of LogBucketIndex).
func LogBucketBound(i int, min float64) float64 {
	return min * math.Pow(10, float64(i)/bucketsPerDecade)
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(floatFromBits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return floatFromBits(h.sumBits.Load())
}

// Merge adds other's observations into h. Both histograms stay usable;
// concurrent Observe calls on either are safe (the merge is atomic per
// bucket, not as a whole — momentary readers may see a partial merge).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range h.counts {
		if n := other.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	if s := other.Sum(); s != 0 {
		for {
			old := h.sumBits.Load()
			if h.sumBits.CompareAndSwap(old, floatBits(floatFromBits(old)+s)) {
				return
			}
		}
	}
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the target rank. Returns 0
// on an empty (or nil) histogram; quantiles landing in the overflow
// bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [numFiniteBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= numFiniteBuckets {
				return histBounds[numFiniteBuckets-1]
			}
			lo := 0.0
			if i > 0 {
				lo = histBounds[i-1]
			}
			hi := histBounds[i]
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return histBounds[numFiniteBuckets-1]
}

// Summary is a histogram digest: the fields /v1/debug/status and the
// flushed trace events report.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Summarize returns the histogram's digest (zero value on nil).
func (h *Histogram) Summarize() Summary {
	if h == nil {
		return Summary{}
	}
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// seriesName splices suffix onto the bare metric name, before any label
// block: seriesName(`x{a="b"}`, "_count") == `x_count{a="b"}`.
func seriesName(name, suffix string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i] + suffix + name[i:]
		}
	}
	return name + suffix
}

// bucketSeries renders one cumulative bucket series name, splicing the
// le label into an existing label block when the name carries one.
func bucketSeries(name, le string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i] + "_bucket" + name[i:len(name)-1] + `,le="` + le + `"}`
		}
	}
	return name + `_bucket{le="` + le + `"}`
}
