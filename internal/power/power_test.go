package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/freq"
)

func TestVoltageCurveMonotone(t *testing.T) {
	c := DefaultParams().CoreVF
	if c.Voltage(1.2) >= c.Voltage(2.3) {
		t.Error("voltage must rise with frequency")
	}
	if c.Voltage(1.2) < 0.7 || c.Voltage(2.3) > 1.4 {
		t.Errorf("voltages implausible: %.3f..%.3f", c.Voltage(1.2), c.Voltage(2.3))
	}
}

func TestCorePowerShape(t *testing.T) {
	p := DefaultParams()
	busyLow := p.CorePower(1.2, 1)
	busyHigh := p.CorePower(2.3, 1)
	if busyHigh <= busyLow {
		t.Error("busy core power must rise with frequency")
	}
	idle := p.CorePower(2.3, 0)
	if idle >= busyHigh {
		t.Error("idle power must be below busy power")
	}
	if idle <= 0 {
		t.Error("idle power must stay positive (leakage)")
	}
}

// TestCoeffsMatchTheFormulaBitForBit pins the engine's per-batch hoist:
// on every grid ratio and at activities below, at and above the idle
// floor, Coeffs.Power equals the one-line CMOS formula written out here
// to the last bit, for cores and for the uncore.
func TestCoeffsMatchTheFormulaBitForBit(t *testing.T) {
	p := DefaultParams()
	check := func(domain string, grid freq.Grid, c func(float64) Coeffs, vf VFCurve, dyn, leak, idle float64) {
		for _, r := range grid.Ratios() {
			f := r.GHz()
			v := vf.Voltage(f)
			for _, a := range []float64{0, idle / 2, idle, 0.5, 1} {
				want := dyn*v*v*f*max(a, idle) + leak*v
				if got := c(f).Power(a); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %v activity %g: coefficient path %v, formula %v", domain, r, a, got, want)
				}
			}
		}
	}
	check("core", freq.HaswellCore(), p.CoreCoeffs, p.CoreVF, p.CoreDyn, p.CoreLeak, p.CoreIdleActivity)
	check("uncore", freq.HaswellUncore(), p.UncoreCoeffs, p.UncoreVF, p.UncoreDyn, p.UncoreLeak, p.UncoreIdleActivity)
}

func TestPackageBudgetNearTDP(t *testing.T) {
	p := DefaultParams()
	pkg := 20*p.CorePower(2.3, 1) + p.UncorePower(3.0, 1) + p.Base
	if pkg < 70 || pkg > 130 {
		t.Errorf("full-tilt package power = %.1f W, want near the 105 W TDP", pkg)
	}
}

func TestLeakageAmortisation(t *testing.T) {
	// Package JPI for a compute-bound workload falls as core frequency
	// rises (Fig. 3a): with 20 busy cores plus the shared uncore (quiet,
	// at its 2.2 GHz Default point) and base power, energy per instruction
	// must be decreasing across the whole DVFS grid so that Cuttlefish
	// resolves CFopt = CFmax for low-TIPI slabs (Table 2).
	p := DefaultParams()
	shared := p.UncorePower(2.2, 0) + p.Base
	prev := math.Inf(1)
	for f := 1.2; f <= 2.31; f += 0.1 {
		pkg := 20*p.CorePower(f, 1) + shared
		jpi := pkg / (20 * 2.0 * f) // ipc 2, f in GHz: arbitrary units
		if jpi >= prev {
			t.Errorf("compute-bound package JPI not decreasing at %.1f GHz", f)
		}
		prev = jpi
	}
}

func TestUncorePowerMattersAtIdleTraffic(t *testing.T) {
	// The Default firmware parks a quiet uncore at 2.2 GHz; Cuttlefish
	// drops it to ~1.2 GHz and the paper banks 8-10% package energy on
	// compute-bound codes. The uncore floor-power delta must therefore be
	// a noticeable slice of a ~75 W compute-bound package.
	p := DefaultParams()
	delta := p.UncorePower(2.2, 0) - p.UncorePower(1.2, 0)
	pkg := 20*p.CorePower(2.3, 1) + p.UncorePower(2.2, 0) + p.Base
	if frac := delta / pkg; frac < 0.04 || frac > 0.15 {
		t.Errorf("uncore 2.2→1.2 GHz saves %.1f%% of package, want 4-15%%", frac*100)
	}
}

func TestUncoreActivityFloor(t *testing.T) {
	p := DefaultParams()
	if p.UncorePower(2.2, 0) != p.UncorePower(2.2, p.UncoreIdleActivity) {
		t.Error("activity below the floor should clamp to the floor")
	}
}

func TestPowerPositiveQuick(t *testing.T) {
	p := DefaultParams()
	f := func(fRaw, aRaw uint8) bool {
		fGHz := 1.2 + float64(fRaw%19)*0.1
		act := float64(aRaw) / 255
		return p.CorePower(fGHz, act) > 0 && p.UncorePower(fGHz, act) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRaplPublishGranularity(t *testing.T) {
	r := NewRapl(1.0/16384, 1e-3)
	r.Deposit(0.5, 0.0004) // within first ms: not published
	if r.Counter() != 0 {
		t.Errorf("counter advanced before update interval: %d", r.Counter())
	}
	r.Deposit(0.5, 0.0015) // past 1 ms: publish
	if got, want := r.Counter(), uint32(16384); got != want {
		t.Errorf("counter = %d, want %d (1 J at 2^-14 J units)", got, want)
	}
}

func TestRaplResidualCarries(t *testing.T) {
	unit := 1.0 / 16384
	r := NewRapl(unit, 1e-3)
	// Deposit 1.5 units worth, publish, then 0.6 more: total 2 units.
	r.Deposit(1.5*unit, 0.002)
	if r.Counter() != 1 {
		t.Fatalf("counter = %d, want 1", r.Counter())
	}
	r.Deposit(0.6*unit, 0.004)
	if r.Counter() != 2 {
		t.Errorf("counter = %d, want 2 (residual must carry)", r.Counter())
	}
}

func TestRaplTotalExact(t *testing.T) {
	r := NewHaswellRapl()
	sum := 0.0
	for i := 0; i < 100; i++ {
		r.Deposit(0.0123, float64(i)*5e-4)
		sum += 0.0123
	}
	if math.Abs(r.TotalJoules()-sum) > 1e-9 {
		t.Errorf("TotalJoules = %g, want %g", r.TotalJoules(), sum)
	}
}

// Property: the visible counter never exceeds what was deposited and lags it
// by less than two units plus the unpublished pending energy.
func TestRaplCounterLagQuick(t *testing.T) {
	prop := func(steps []uint8) bool {
		r := NewHaswellRapl()
		now := 0.0
		dep := 0.0
		for _, s := range steps {
			j := float64(s) * 1e-4
			now += 2e-3 // always past the update interval
			r.Deposit(j, now)
			dep += j
		}
		visible := float64(r.Counter()) * r.unitJ
		return visible <= dep+1e-9 && dep-visible < 2*r.unitJ+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
