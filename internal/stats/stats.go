// Package stats provides the small statistical toolkit the paper's
// evaluation uses: means with 95% confidence intervals over repeated runs,
// geometric means for cross-benchmark aggregation, and the energy-delay
// product.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean. It panics on an empty slice: an
// experiment with zero repetitions is a harness bug.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator); zero for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the normal approximation the paper's error bars use.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// GeoMean returns the geometric mean. All inputs must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean requires positive values, got %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// EDP returns the energy-delay product.
func EDP(joules, seconds float64) float64 { return joules * seconds }

// SavingsPercent expresses how much smaller value is than baseline, in
// percent: positive means value improved on (is below) the baseline.
func SavingsPercent(baseline, value float64) float64 {
	return 100 * (1 - value/baseline)
}

// SlowdownPercent expresses how much larger value is than baseline, in
// percent: positive means value is slower (above baseline).
func SlowdownPercent(baseline, value float64) float64 {
	return 100 * (value/baseline - 1)
}
