package stats

import (
	"math"
	"sort"
	"testing"
)

// TestHistogramBucketBoundaries pins the log-bucket geometry: bounds are
// strictly increasing, span 1 ns to 10 000 s with histBucketsPerDecade
// buckets per decade, and every observation lands in the bucket whose
// (lo, hi] range contains it.
func TestHistogramBucketBoundaries(t *testing.T) {
	if got := len(histBounds); got != histBuckets {
		t.Fatalf("len(histBounds) = %d, want %d", got, histBuckets)
	}
	for i := 1; i < len(histBounds); i++ {
		if histBounds[i] <= histBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %g <= %g", i, histBounds[i], histBounds[i-1])
		}
	}
	if histBounds[0] != 1e-9 {
		t.Errorf("lowest bound = %g, want 1e-9", histBounds[0])
	}
	if !math.IsInf(histBounds[len(histBounds)-1], 1) {
		t.Errorf("last bound = %g, want +Inf", histBounds[len(histBounds)-1])
	}
	// One decade apart must be exactly histBucketsPerDecade buckets apart.
	if d := bucketIndex(1.0) - bucketIndex(0.1); d != histBucketsPerDecade {
		t.Errorf("buckets per decade = %d, want %d", d, histBucketsPerDecade)
	}
	// Placement: v must satisfy lo < v <= hi for its bucket.
	for _, v := range []float64{0, 1e-12, 1e-9, 2.3e-7, 1e-6, 4.2e-3, 0.5, 1, 60, 9999, 1e4, 1e7} {
		i := bucketIndex(v)
		if v > histBounds[i] {
			t.Errorf("bucketIndex(%g) = %d but v > upper bound %g", v, i, histBounds[i])
		}
		if i > 0 && v <= histBounds[i-1] {
			t.Errorf("bucketIndex(%g) = %d but v <= lower bound %g", v, i, histBounds[i-1])
		}
	}
	// A value sitting exactly on a bound belongs to that bound's bucket
	// (le semantics).
	for i, b := range histBounds[:len(histBounds)-1] {
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(bound %g) = %d, want %d", b, got, i)
		}
	}
}

// TestHistogramQuantileErrorBound verifies the documented one-sided
// error: true ≤ Quantile(q) ≤ true × 10^(1/histBucketsPerDecade), for
// values inside the bucketed range.
func TestHistogramQuantileErrorBound(t *testing.T) {
	h := NewHistogram()
	var xs []float64
	v := 1e-6
	for i := 0; i < 500; i++ {
		xs = append(xs, v)
		h.Observe(v)
		v *= 1.03 // spans ~6 decades
	}
	sort.Float64s(xs)
	ratio := math.Pow(10, 1.0/histBucketsPerDecade)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		rank := int(math.Ceil(q * float64(len(xs))))
		if rank < 1 {
			rank = 1
		}
		truth := xs[rank-1]
		if got < truth || got > truth*ratio*1.0000001 {
			t.Errorf("Quantile(%g) = %g outside [%g, %g]", q, got, truth, truth*ratio)
		}
	}
	if h.Quantile(0.5) > h.Quantile(0.95) {
		t.Error("quantiles must be monotone in q")
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(math.NaN())
	h.Observe(-1)
	if h.Count() != 0 {
		t.Error("NaN and negative observations must be dropped")
	}
	h.Observe(1e9) // overflow bucket
	if got := h.Quantile(1); math.IsInf(got, 1) || got <= 0 {
		t.Errorf("overflow quantile = %g, want the finite top edge", got)
	}
}

// TestHistogramSnapshotCumulative pins the Prometheus contract: buckets
// strictly increasing in Le, non-decreasing (monotone) in Count, ending
// at le=+Inf with the total count.
func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1e-6, 1e-6, 3e-4, 0.02, 0.02, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("snapshot count = %d, want 6", s.Count)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Le <= s.Buckets[i-1].Le {
			t.Errorf("bucket Le not increasing at %d", i)
		}
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Errorf("bucket counts not monotone at %d: %d < %d", i, s.Buckets[i].Count, s.Buckets[i-1].Count)
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.Le, 1) || last.Count != s.Count {
		t.Errorf("last bucket = {%g %d}, want {+Inf %d}", last.Le, last.Count, s.Count)
	}
}
