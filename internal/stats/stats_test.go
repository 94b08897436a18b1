package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestMeanPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mean(nil) should panic")
		}
	}()
	Mean(nil)
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, math.Sqrt(32.0/7)) {
		t.Errorf("StdDev = %g", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single sample stddev must be 0")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 12, 11, 13, 9, 11}
	want := 1.96 * StdDev(xs) / math.Sqrt(6)
	if got := CI95(xs); !almost(got, want) {
		t.Errorf("CI95 = %g, want %g", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of one sample must be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almost(got, 4) {
		t.Errorf("GeoMean = %g, want 4", got)
	}
}

func TestGeoMeanPanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GeoMean with zero should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestSavingsAndSlowdown(t *testing.T) {
	if got := SavingsPercent(100, 80); !almost(got, 20) {
		t.Errorf("SavingsPercent = %g, want 20", got)
	}
	if got := SlowdownPercent(100, 103); !almost(got, 3) {
		t.Errorf("SlowdownPercent = %g, want 3", got)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(50, 2); !almost(got, 100) {
		t.Errorf("EDP = %g, want 100", got)
	}
}

// Property: geomean lies between min and max; mean is translation-covariant.
func TestStatsPropertiesQuick(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		if g < lo-1e-9 || g > hi+1e-9 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + 7
		}
		return almost(Mean(shifted), Mean(xs)+7)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
