package reuse

import (
	"math"

	"staticest/internal/interp"
)

// Distances computes the LRU stack distance of every access in the
// trace: the number of distinct other addresses touched since the last
// access to the same address, or +Inf for a first touch. This is the
// classic O(n log n) tree formulation (Bennett & Kruskal / Olken): a
// Fenwick tree over time slots holds a 1 at the most recent access time
// of each currently-live address, so the distance of an access at time
// i whose address was last touched at time j is the number of marks in
// (j, i), i.e. the distinct addresses touched strictly between them.
func Distances(trace []interp.MemAccess) []float64 {
	out := make([]float64, len(trace))
	last := make(map[uint64]int, 1024)
	f := newFenwick(len(trace))
	for i := range trace {
		addr := trace[i].Addr
		if j, ok := last[addr]; ok {
			out[i] = float64(f.sum(i-1) - f.sum(j))
			f.add(j, -1)
		} else {
			out[i] = math.Inf(1)
		}
		f.add(i, 1)
		last[addr] = i
	}
	return out
}

// Measure folds a trace into a measured reuse profile against the
// table: every access contributes unit mass at its stack distance to
// the whole-program histogram and to its reference site's histogram.
func Measure(t *Table, trace []interp.MemAccess) *Profile {
	p := &Profile{Source: "measured", PerRef: make([]Histogram, len(t.Refs))}
	d := Distances(trace)
	for i := range trace {
		p.Total.Add(d[i], 1)
		if ref := trace[i].Ref; ref >= 0 && int(ref) < len(p.PerRef) {
			p.PerRef[ref].Add(d[i], 1)
		}
	}
	return p
}

// fenwick is a 1-indexed binary indexed tree over [0, n).
type fenwick struct {
	t []int64
}

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int64, n+1)} }

func (f *fenwick) add(i int, d int64) {
	for i++; i < len(f.t); i += i & -i {
		f.t[i] += d
	}
}

// sum returns the prefix sum over [0, i]; sum(-1) is 0.
func (f *fenwick) sum(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & -i {
		s += f.t[i]
	}
	return s
}
