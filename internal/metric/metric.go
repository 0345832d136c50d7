// Package metric implements the paper's evaluation measures: Wall's
// weight-matching metric (how much of the actual hot set an estimate's
// top quantile captures) and branch-prediction miss rates.
package metric

import "sort"

// WeightMatch scores an estimate against actual counts at the given
// cutoff fraction (0 < cutoff <= 1). Per the paper: k = cutoff × N items
// are selected from each ranking; when k is fractional the ⌈k⌉-th item is
// weighted by the fraction. The score is the actual weight captured by
// the estimated quantile divided by the actual weight of the actual
// quantile. Returns 1 for empty inputs or an all-zero actual vector
// (nothing to misrank).
func WeightMatch(estimate, actual []float64, cutoff float64) float64 {
	n := len(actual)
	if n == 0 || len(estimate) != n || cutoff <= 0 {
		return 1
	}
	totalActual := 0.0
	for _, v := range actual {
		totalActual += v
	}
	if totalActual == 0 {
		return 1
	}
	if cutoff > 1 {
		cutoff = 1
	}
	k := cutoff * float64(n)

	estWeight := quantileWeight(rankDesc(estimate), actual, k)
	actWeight := quantileWeight(rankDesc(actual), actual, k)
	if actWeight == 0 {
		return 1
	}
	score := estWeight / actWeight
	if score > 1 {
		score = 1 // fractional-boundary ties can nudge past 1
	}
	return score
}

// rankDesc returns item indices sorted by value descending; ties break by
// index for determinism.
func rankDesc(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return vals[idx[a]] > vals[idx[b]]
	})
	return idx
}

// quantileWeight sums actual weight over the first k ranked items,
// weighting the final partial item fractionally.
func quantileWeight(rank []int, actual []float64, k float64) float64 {
	whole := int(k)
	frac := k - float64(whole)
	w := 0.0
	for i := 0; i < whole && i < len(rank); i++ {
		w += actual[rank[i]]
	}
	if frac > 0 && whole < len(rank) {
		w += frac * actual[rank[whole]]
	}
	return w
}

// TotalVariation normalizes both vectors to unit mass and returns half
// their L1 distance — 0 for identical distributions, 1 for disjoint
// ones. A zero-mass vector is treated as uniform (matching the
// explain-report divergence, which this generalizes). Vectors of unequal
// length compare over the common prefix.
func TotalVariation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	na, nb := normalizeMass(a[:n]), normalizeMass(b[:n])
	var tv float64
	for i := range na {
		d := na[i] - nb[i]
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv / 2
}

func normalizeMass(v []float64) []float64 {
	out := make([]float64, len(v))
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(v))
		}
		return out
	}
	for i, x := range v {
		out[i] = x / sum
	}
	return out
}

// WeightedMean averages scores with the given weights (the paper weights
// per-function scores by dynamic invocation counts). Zero total weight
// yields the unweighted mean.
func WeightedMean(scores, weights []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	var sw, tw float64
	for i, s := range scores {
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		sw += s * w
		tw += w
	}
	if tw == 0 {
		for _, s := range scores {
			sw += s
		}
		return sw / float64(len(scores))
	}
	return sw / tw
}

// MissRate aggregates branch-prediction misses: predictions[i] is the
// predicted taken-direction of branch site i, taken/not are the dynamic
// outcome counts, and skip[i] excludes a site (constant conditions).
// The result is (mispredicted dynamic branches) / (total dynamic
// branches); 0 when no branches executed.
func MissRate(predictTaken []bool, taken, not []float64, skip []bool) float64 {
	var miss, total float64
	for i := range predictTaken {
		if skip != nil && skip[i] {
			continue
		}
		t, n := taken[i], not[i]
		total += t + n
		if predictTaken[i] {
			miss += n
		} else {
			miss += t
		}
	}
	if total == 0 {
		return 0
	}
	return miss / total
}

// PerfectStaticMissRate is the floor for any static scheme: each branch
// predicts its own majority direction, so the minority count is missed.
func PerfectStaticMissRate(taken, not []float64, skip []bool) float64 {
	var miss, total float64
	for i := range taken {
		if skip != nil && skip[i] {
			continue
		}
		t, n := taken[i], not[i]
		total += t + n
		if t < n {
			miss += t
		} else {
			miss += n
		}
	}
	if total == 0 {
		return 0
	}
	return miss / total
}
