package grid

import (
	"math"
	"reflect"
	"testing"
)

func TestCrossRowMajorOrder(t *testing.T) {
	var got [][]int
	Cross([]int{2, 3}, func(idx []int) {
		got = append(got, append([]int(nil), idx...))
	})
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Cross(2,3) order = %v, want %v", got, want)
	}
}

func TestCrossDegenerateAxes(t *testing.T) {
	calls := 0
	Cross(nil, func([]int) { calls++ })
	Cross([]int{3, 0, 2}, func([]int) { calls++ })
	if calls != 0 {
		t.Errorf("empty products visited %d points, want 0", calls)
	}
	Cross([]int{1}, func([]int) { calls++ })
	if calls != 1 {
		t.Errorf("single-point product visited %d points, want 1", calls)
	}
}

func TestSizeMatchesCross(t *testing.T) {
	for _, lens := range [][]int{{2, 3}, {1}, {4, 1, 2}, {0, 5}, nil} {
		visited := 0
		Cross(lens, func([]int) { visited++ })
		if got := Size(lens); got != visited {
			t.Errorf("Size(%v) = %d, Cross visited %d", lens, got, visited)
		}
	}
}

func TestKumaraswamyDeterministicAndBounded(t *testing.T) {
	a, err := Kumaraswamy(2, 3, 100, 42, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Kumaraswamy(2, 3, 100, 42, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must reproduce the same sample bit for bit")
	}
	for i, x := range a {
		if x < 0.01 || x > 0.5 || math.IsNaN(x) {
			t.Fatalf("sample %d = %g escapes [0.01, 0.5]", i, x)
		}
	}
	c, err := Kumaraswamy(2, 3, 100, 43, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should draw different samples")
	}
}

// TestKumaraswamyShape sanity-checks the inverse CDF against the
// analytic mean: for a = 1 the distribution is Beta(1, b) with mean
// 1/(1+b).
func TestKumaraswamyShape(t *testing.T) {
	xs, err := Kumaraswamy(1, 4, 20000, 7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if want := 1.0 / 5.0; math.Abs(mean-want) > 0.01 {
		t.Errorf("empirical mean = %g, want ≈ %g", mean, want)
	}
}

func TestKumaraswamyRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		name     string
		a, b     float64
		n        int
		min, max float64
	}{
		{"zero a", 0, 1, 5, 0, 1},
		{"negative b", 1, -2, 5, 0, 1},
		{"NaN a", math.NaN(), 1, 5, 0, 1},
		{"NaN b", 1, math.NaN(), 5, 0, 1},
		{"infinite a", math.Inf(1), 1, 5, 0, 1},
		{"zero samples", 1, 1, 0, 0, 1},
		{"inverted support", 1, 1, 5, 2, 1},
		{"NaN support", 1, 1, 5, math.NaN(), 1},
		{"infinite support", 1, 1, 5, 0, math.Inf(1)},
	} {
		if _, err := Kumaraswamy(tc.a, tc.b, tc.n, 1, tc.min, tc.max); err == nil {
			t.Errorf("%s: Kumaraswamy(a=%g b=%g n=%d [%g,%g]) accepted invalid parameters",
				tc.name, tc.a, tc.b, tc.n, tc.min, tc.max)
		}
	}
}

// TestKumaraswamyDegenerateSupport pins the min == max case: every
// sample is exactly the constant, never NaN from a 0-width rescale.
func TestKumaraswamyDegenerateSupport(t *testing.T) {
	xs, err := Kumaraswamy(2, 3, 50, 9, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if x != 0.25 {
			t.Fatalf("sample %d over degenerate support = %g, want exactly 0.25", i, x)
		}
	}
}

// invCDFEdges is KumaraswamyInvCDF's edge-case table: the u ∈ {0, 1}
// endpoints, special shapes, and invalid shapes and variates.
var invCDFEdges = []struct {
	name    string
	a, b, u float64
	want    float64
	wantErr bool
}{
	{name: "u=0 endpoint", a: 2, b: 3, u: 0, want: 0},
	{name: "u=1 endpoint", a: 2, b: 3, u: 1, want: 1},
	{name: "u=0 with tiny shapes", a: 1e-6, b: 1e-6, u: 0, want: 0},
	{name: "u=1 with tiny shapes", a: 1e-6, b: 1e-6, u: 1, want: 1},
	{name: "uniform special case", a: 1, b: 1, u: 0.5, want: 0.5},
	{name: "median of a=1 b=1", a: 1, b: 2, u: 0.75, want: 0.5},
	{name: "zero a", a: 0, b: 1, u: 0.5, wantErr: true},
	{name: "zero b", a: 1, b: 0, u: 0.5, wantErr: true},
	{name: "negative a", a: -1, b: 1, u: 0.5, wantErr: true},
	{name: "NaN a", a: math.NaN(), b: 1, u: 0.5, wantErr: true},
	{name: "NaN b", a: 1, b: math.NaN(), u: 0.5, wantErr: true},
	{name: "infinite a", a: math.Inf(1), b: 1, u: 0.5, wantErr: true},
	{name: "infinite b", a: 1, b: math.Inf(1), u: 0.5, wantErr: true},
	{name: "u below 0", a: 1, b: 1, u: -0.1, wantErr: true},
	{name: "u above 1", a: 1, b: 1, u: 1.1, wantErr: true},
	{name: "NaN u", a: 1, b: 1, u: math.NaN(), wantErr: true},
}

// TestKumaraswamyInvCDFEdges is the table-driven edge-case contract: the
// quantile function must map the u ∈ {0, 1} endpoints exactly, stay
// finite on every valid input, and reject invalid shapes and variates
// with errors instead of returning NaN/Inf.
func TestKumaraswamyInvCDFEdges(t *testing.T) {
	for _, tc := range invCDFEdges {
		got, err := KumaraswamyInvCDF(tc.a, tc.b, tc.u)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: InvCDF(%g, %g, %g) = %g, want error", tc.name, tc.a, tc.b, tc.u, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: InvCDF(%g, %g, %g) errored: %v", tc.name, tc.a, tc.b, tc.u, err)
			continue
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: InvCDF(%g, %g, %g) = %g, want finite", tc.name, tc.a, tc.b, tc.u, got)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: InvCDF(%g, %g, %g) = %g, want %g", tc.name, tc.a, tc.b, tc.u, got, tc.want)
		}
	}
}

// TestKumaraswamyInvCDFStaysInUnitInterval fuzzes the valid domain: no
// (a, b, u) combination of extreme-but-valid parameters may escape
// [0, 1] or go non-finite.
func TestKumaraswamyInvCDFStaysInUnitInterval(t *testing.T) {
	shapes := []float64{1e-3, 0.5, 1, 2, 50, 1e3}
	us := []float64{0, 1e-300, 1e-9, 0.5, 1 - 1e-9, 1}
	for _, a := range shapes {
		for _, b := range shapes {
			for _, u := range us {
				x, err := KumaraswamyInvCDF(a, b, u)
				if err != nil {
					t.Fatalf("InvCDF(%g, %g, %g) errored: %v", a, b, u, err)
				}
				if !(x >= 0 && x <= 1) {
					t.Fatalf("InvCDF(%g, %g, %g) = %g escapes [0, 1]", a, b, u, x)
				}
			}
		}
	}
}

// FuzzKumaraswamyInvCDF checks the quantile function on arbitrary inputs.
// An input is an error exactly when a shape is not positive and finite or
// u lies outside [0, 1]. A valid one gives x in [0, 1], with u = 0 → 0 and
// u = 1 → 1 exactly. Inside a, b ∈ [0.5, 5] and u ∈ [1e-6, 1−1e-6], x
// inverts the closed-form CDF F(x) = 1 − (1 − xᵃ)ᵇ (Carrasco et al.,
// arXiv 1004.0911) to within 1e-9 (20M draws weighted toward the box's
// edges saw at most 1.0e-10), and x is non-decreasing in u to within
// 1e-12: math.Pow is not monotone to the last ulp, so adjacent variates
// can come out up to ~1.6e-13 in the wrong order (40M sampled adjacent
// pairs). Outside that box the shape exponents amplify rounding and x
// saturates (b = 0.1, u = 0.99 gives x = 1.0 for every a), so only the
// range is checked there.
func FuzzKumaraswamyInvCDF(f *testing.F) {
	for _, tc := range invCDFEdges {
		f.Add(tc.a, tc.b, tc.u, tc.u)
	}
	f.Add(2.0, 3.0, 0.25, 0.75)
	f.Add(0.1, 0.1, 0.97, 0.99)
	// Adjacent variates whose samples decrease by one ulp.
	f.Add(2.5221103303031525, 1.6846468669811874, 0.19435462348631885, math.Nextafter(0.19435462348631885, 1))
	inBox := func(a, b, u float64) bool {
		return a >= 0.5 && a <= 5 && b >= 0.5 && b <= 5 && u >= 1e-6 && u <= 1-1e-6
	}
	f.Fuzz(func(t *testing.T, a, b, u1, u2 float64) {
		if u2 < u1 {
			u1, u2 = u2, u1
		}
		validShape := a > 0 && b > 0 && !math.IsInf(a, 1) && !math.IsInf(b, 1)
		var xs [2]float64
		for i, u := range [2]float64{u1, u2} {
			x, err := KumaraswamyInvCDF(a, b, u)
			if valid := validShape && u >= 0 && u <= 1; (err == nil) != valid {
				t.Fatalf("InvCDF(%g, %g, %g) error = %v, want an error %v", a, b, u, err, !valid)
			}
			if err != nil {
				return
			}
			if !(x >= 0 && x <= 1) || (u == 0 && x != 0) || (u == 1 && x != 1) {
				t.Fatalf("InvCDF(%g, %g, %g) = %g", a, b, u, x)
			}
			if inBox(a, b, u) {
				if d := math.Abs(1 - math.Pow(1-math.Pow(x, a), b) - u); d > 1e-9 {
					t.Fatalf("InvCDF(%g, %g, %g) = %g, but F(x) is %g away from u", a, b, u, x, d)
				}
			}
			xs[i] = x
		}
		if inBox(a, b, u1) && inBox(a, b, u2) && xs[0] > xs[1]+1e-12 {
			t.Fatalf("InvCDF(%g, %g, ·) decreases: u %g → %g, x %g → %g", a, b, u1, u2, xs[0], xs[1])
		}
	})
}

func TestSamplerDeterministicStreams(t *testing.T) {
	draw := func(seed int64) []float64 {
		s := NewSampler(seed)
		out := []float64{
			s.Uniform(0, 10),
			s.Kumaraswamy(2, 3, 1, 5),
			float64(s.IntBetween(3, 9)),
			float64(s.Choice([]float64{1, 2, 3})),
		}
		if s.Bool(0.5) {
			out = append(out, 1)
		}
		return out
	}
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if a, c := draw(7), draw(8); reflect.DeepEqual(a, c) {
		t.Error("different seeds should draw different streams")
	}
}

func TestSamplerBoundsAndPanics(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 1000; i++ {
		if x := s.Uniform(2, 3); x < 2 || x >= 3 {
			t.Fatalf("Uniform escaped: %g", x)
		}
		if x := s.Kumaraswamy(0.8, 4, -1, 1); x < -1 || x > 1 {
			t.Fatalf("Kumaraswamy escaped: %g", x)
		}
		if n := s.IntBetween(5, 7); n < 5 || n > 7 {
			t.Fatalf("IntBetween escaped: %d", n)
		}
		if c := s.Choice([]float64{0, 1, 0}); c != 1 {
			t.Fatalf("Choice ignored the only positive weight: %d", c)
		}
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on invalid parameters", name)
			}
		}()
		fn()
	}
	mustPanic("Uniform inverted", func() { s.Uniform(3, 2) })
	mustPanic("Kumaraswamy bad shape", func() { s.Kumaraswamy(-1, 1, 0, 1) })
	mustPanic("IntBetween inverted", func() { s.IntBetween(9, 3) })
	mustPanic("Choice negative weight", func() { s.Choice([]float64{1, -1}) })
	mustPanic("Choice empty", func() { s.Choice(nil) })
}
