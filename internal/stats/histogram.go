package stats

import (
	"math"
	"sync"
)

// Log-bucket geometry. Latencies in this system span nine orders of
// magnitude (sub-microsecond cache hits to multi-minute paper-scale
// sweeps), so buckets are log-spaced: histBucketsPerDecade buckets per
// factor of ten, covering [histMin, histMax) seconds, plus an underflow
// bucket below histMin and an overflow bucket at the top. The geometry is
// fixed so any two Histograms are mergeable bucket-by-bucket.
const (
	histBucketsPerDecade = 5
	histMinExp           = -9 // 1 ns
	histMaxExp           = 4  // 10 000 s
	histBuckets          = (histMaxExp-histMinExp)*histBucketsPerDecade + 2
)

// histBounds[i] is the inclusive upper bound of bucket i; the last bucket
// is unbounded (+Inf).
var histBounds = func() []float64 {
	b := make([]float64, histBuckets)
	for i := 0; i < histBuckets-1; i++ {
		b[i] = math.Pow(10, float64(histMinExp)+float64(i)/histBucketsPerDecade)
	}
	b[histBuckets-1] = math.Inf(1)
	return b
}()

// Histogram is a fixed-geometry log-bucketed latency histogram, safe for
// concurrent use. Observations are in seconds. Quantiles are approximate:
// the returned value is the upper bound of the bucket holding the
// quantile, so it is an overestimate by at most one bucket ratio
// (10^(1/5) ≈ 1.585×) — see Quantile. Unlike a sliding window it never
// forgets, so /v1/stats and /metrics report from the same full-lifetime
// distribution.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex returns the bucket whose (lo, hi] range contains v.
func bucketIndex(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	// exact: log10(v) positioned on the bucket grid, then corrected for
	// float error against the real bounds.
	i := int(math.Ceil((math.Log10(v) - histMinExp) * histBucketsPerDecade))
	if i < 0 {
		i = 0
	}
	if i > histBuckets-1 {
		i = histBuckets - 1
	}
	for i > 0 && v <= histBounds[i-1] {
		i--
	}
	for i < histBuckets-1 && v > histBounds[i] {
		i++
	}
	return i
}

// Observe records one value (seconds). NaN and negative values are
// dropped: a negative latency is clock skew, not data.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	i := bucketIndex(v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns an upper bound on the q-th quantile (0 ≤ q ≤ 1): the
// upper bound of the bucket the quantile falls in. The error is one-sided
// and bounded — true ≤ returned ≤ true × 10^(1/histBucketsPerDecade) —
// except in the overflow bucket, where the lower edge of the bucket is
// returned. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == histBuckets-1 {
				// Overflow bucket: +Inf would be useless; report the
				// bucket's finite lower edge.
				return histBounds[histBuckets-2]
			}
			return histBounds[i]
		}
	}
	return histBounds[histBuckets-2]
}

// HistogramBucket is one cumulative bucket of a snapshot: Count is the
// number of observations ≤ Le (Prometheus "le" semantics).
type HistogramBucket struct {
	Le    float64
	Count uint64
}

// HistogramSnapshot is a point-in-time copy of a histogram in the
// cumulative form Prometheus exposition wants. Buckets are strictly
// increasing in Le and non-decreasing in Count; the last bucket is
// le=+Inf with Count == Count(total).
type HistogramSnapshot struct {
	Buckets []HistogramBucket
	Sum     float64
	Count   uint64
}

// Snapshot returns the cumulative-bucket view, skipping leading and
// trailing all-empty buckets (the +Inf bucket is always kept) to keep
// exposition compact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := h.counts
	snap := HistogramSnapshot{Sum: h.sum, Count: h.count}
	h.mu.Unlock()
	var cum uint64
	lastNonEmpty := -1
	for i, c := range counts {
		if c > 0 {
			lastNonEmpty = i
		}
	}
	for i, c := range counts {
		cum += c
		// Keep one zero bucket before the first data (a proper lower
		// fence) and everything up to the last non-empty; always keep +Inf.
		keep := i == histBuckets-1 || (i <= lastNonEmpty+1 && (cum > 0 || i+1 < histBuckets && counts[i+1] > 0))
		if keep {
			snap.Buckets = append(snap.Buckets, HistogramBucket{Le: histBounds[i], Count: cum})
		}
	}
	return snap
}
