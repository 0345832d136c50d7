package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightMatchPerfect(t *testing.T) {
	actual := []float64{10, 5, 3, 1}
	for _, cutoff := range []float64{0.25, 0.5, 0.75, 1.0} {
		if got := WeightMatch(actual, actual, cutoff); !approx(got, 1) {
			t.Errorf("self-match at %.2f = %g, want 1", cutoff, got)
		}
	}
}

func TestWeightMatchPaperExample(t *testing.T) {
	// Table 2 of the paper: 5 blocks, estimate picks the top block at
	// 20% and misses the third at 60% for 7/8.
	actual := []float64{3, 3, 2, 1, 0} // while, if, return1, incr, return2
	estimate := []float64{5, 4, 0.8, 4, 1}
	if got := WeightMatch(estimate, actual, 0.20); !approx(got, 1) {
		t.Errorf("20%% = %g, want 1", got)
	}
	if got := WeightMatch(estimate, actual, 0.60); !approx(got, 7.0/8.0) {
		t.Errorf("60%% = %g, want 0.875", got)
	}
}

func TestWeightMatchWorstCase(t *testing.T) {
	// The estimate ranks blocks exactly backwards; at 25% of 4 items it
	// picks the zero-weight one.
	actual := []float64{100, 0, 0, 0}
	estimate := []float64{0, 1, 2, 3}
	if got := WeightMatch(estimate, actual, 0.25); !approx(got, 0) {
		t.Errorf("inverted ranking = %g, want 0", got)
	}
}

func TestWeightMatchFractionalBoundary(t *testing.T) {
	// 3 items at 50% → k = 1.5: the second item weighs half.
	actual := []float64{4, 2, 0}
	estimate := []float64{1, 2, 3} // picks item2 (0), then half of item1 (2)
	want := (0 + 0.5*2) / (4 + 0.5*2)
	if got := WeightMatch(estimate, actual, 0.5); !approx(got, want) {
		t.Errorf("fractional = %g, want %g", got, want)
	}
}

func TestWeightMatchDegenerate(t *testing.T) {
	if got := WeightMatch(nil, nil, 0.5); got != 1 {
		t.Errorf("empty = %g", got)
	}
	if got := WeightMatch([]float64{1, 2}, []float64{0, 0}, 0.5); got != 1 {
		t.Errorf("all-zero actual = %g", got)
	}
	if got := WeightMatch([]float64{1}, []float64{5}, 2.0); !approx(got, 1) {
		t.Errorf("cutoff > 1 = %g", got)
	}
	if got := WeightMatch([]float64{1, 2}, []float64{5}, 0.5); got != 1 {
		t.Errorf("length mismatch should degrade to 1, got %g", got)
	}
}

// Property: the score is always in [0, 1], and a self-match is always 1.
func TestWeightMatchProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, n uint8, cutNum uint8) bool {
		rng.Seed(seed)
		size := int(n%30) + 1
		cutoff := float64(cutNum%99+1) / 100
		actual := make([]float64, size)
		estimate := make([]float64, size)
		for i := range actual {
			actual[i] = float64(rng.Intn(100))
			estimate[i] = float64(rng.Intn(100))
		}
		s := WeightMatch(estimate, actual, cutoff)
		if s < 0 || s > 1 {
			return false
		}
		return approx(WeightMatch(actual, actual, cutoff), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: scaling the estimate by any positive constant cannot change
// the score (only the ranking matters).
func TestWeightMatchScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, kNum uint8) bool {
		rng.Seed(seed)
		n := rng.Intn(20) + 2
		k := float64(kNum%50+1) / 10
		actual := make([]float64, n)
		estimate := make([]float64, n)
		scaled := make([]float64, n)
		for i := range actual {
			actual[i] = float64(rng.Intn(50))
			estimate[i] = rng.Float64() * 100
			scaled[i] = estimate[i] * k
		}
		return approx(WeightMatch(estimate, actual, 0.3), WeightMatch(scaled, actual, 0.3))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	pred := []bool{true, false, true}
	taken := []float64{90, 20, 0}
	not := []float64{10, 80, 0}
	// site0: predict taken, miss 10; site1: predict not, miss 20; site2
	// never executes.
	if got := MissRate(pred, taken, not, nil); !approx(got, 30.0/200) {
		t.Errorf("miss rate = %g, want 0.15", got)
	}
	// Skipping site 0 leaves 20 misses of 100.
	if got := MissRate(pred, taken, not, []bool{true, false, false}); !approx(got, 0.2) {
		t.Errorf("skipped miss rate = %g, want 0.2", got)
	}
	if got := MissRate(nil, nil, nil, nil); got != 0 {
		t.Errorf("empty miss rate = %g", got)
	}
}

func TestPerfectStaticMissRate(t *testing.T) {
	taken := []float64{90, 20}
	not := []float64{10, 80}
	// Majority directions miss 10 + 20 of 200.
	if got := PerfectStaticMissRate(taken, not, nil); !approx(got, 0.15) {
		t.Errorf("PSP = %g, want 0.15", got)
	}
}

// Property: PSP is a lower bound for any predictor on the same counts.
func TestPSPLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rng.Seed(seed)
		n := rng.Intn(12) + 1
		taken := make([]float64, n)
		not := make([]float64, n)
		pred := make([]bool, n)
		for i := range taken {
			taken[i] = float64(rng.Intn(100))
			not[i] = float64(rng.Intn(100))
			pred[i] = rng.Intn(2) == 0
		}
		return PerfectStaticMissRate(taken, not, nil) <= MissRate(pred, taken, not, nil)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{1, 0}, []float64{3, 1}); !approx(got, 0.75) {
		t.Errorf("weighted mean = %g, want 0.75", got)
	}
	if got := WeightedMean([]float64{0.2, 0.8}, []float64{0, 0}); !approx(got, 0.5) {
		t.Errorf("zero-weight mean = %g, want 0.5 (unweighted)", got)
	}
	if got := WeightedMean(nil, nil); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
}
