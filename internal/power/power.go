// Package power models the energy behaviour of an Intel-style package: an
// affine voltage–frequency curve, CMOS dynamic power (C·V²·f scaled by
// activity), voltage-proportional leakage, and a RAPL-style wrapping energy
// counter updated on millisecond boundaries.
//
// The coefficients ship calibrated so that a 20-core Haswell-class package
// lands near its 105 W TDP at full tilt and reproduces the joules-per-
// instruction shapes of the paper's §3.2: compute-bound JPI falls as core
// frequency rises (leakage amortisation) and rises as uncore frequency
// rises; memory-bound JPI behaves the opposite way with an interior uncore
// optimum.
package power

// VFCurve is an affine approximation of the voltage demanded by a frequency:
// V(f) = V0 + Slope·f, with f in GHz and V in volts. Real parts publish a
// staircase of voltage/frequency pairs; affine is within a few percent
// across the Haswell DVFS window.
type VFCurve struct {
	V0    float64 // volts at 0 GHz extrapolation
	Slope float64 // volts per GHz
}

// Voltage returns the operating voltage at fGHz.
func (c VFCurve) Voltage(fGHz float64) float64 { return c.V0 + c.Slope*fGHz }

// Params are the package power-model coefficients.
type Params struct {
	CoreVF   VFCurve
	UncoreVF VFCurve

	// CoreDyn is watts per (V²·GHz) per core at activity 1.
	CoreDyn float64
	// CoreLeak is watts per volt per core.
	CoreLeak float64
	// CoreIdleActivity is the effective activity of a core with no work
	// (clock-gated but not power-gated).
	CoreIdleActivity float64

	// UncoreDyn is watts per (V²·GHz) for the whole uncore at activity 1.
	UncoreDyn float64
	// UncoreLeak is watts per volt for the uncore.
	UncoreLeak float64
	// UncoreIdleActivity is the uncore activity floor with no LLC traffic
	// (ring and LLC arrays still clocking).
	UncoreIdleActivity float64

	// Base is constant package overhead (IO, PLLs, memory controller idle).
	Base float64
}

// DefaultParams returns coefficients calibrated for the paper's Xeon
// E5-2650 v3 (20 cores, 105 W TDP). The voltage slope is deliberately
// shallow (server parts run close to Vmin across the DVFS window), which —
// together with the shared uncore/base power — makes compute-bound package
// JPI fall as core frequency rises, the Fig. 3(a) behaviour Cuttlefish's
// classifier depends on. The uncore's activity floor is high because ring
// and LLC arrays clock regardless of traffic; that floor is the energy
// Cuttlefish-Uncore harvests on compute-bound codes.
func DefaultParams() Params {
	return Params{
		CoreVF:             VFCurve{V0: 0.78, Slope: 0.10},
		UncoreVF:           VFCurve{V0: 0.78, Slope: 0.10},
		CoreDyn:            1.00,
		CoreLeak:           0.70,
		CoreIdleActivity:   0.03,
		UncoreDyn:          12.0,
		UncoreLeak:         1.20,
		UncoreIdleActivity: 0.60,
		Base:               8.0,
	}
}

// Coeffs are a power domain's (one core's, or the uncore's) terms at one
// frequency f with voltage V = V(f): Dyn = dyn·V·V·f and Leak = leak·V,
// so that power = Dyn·max(activity, IdleActivity) + Leak. The engine
// computes them when a frequency changes and Power per quantum; that is
// the same operations in the same order as evaluating the formula whole,
// so the result is bit-identical.
type Coeffs struct {
	Dyn, Leak    float64
	IdleActivity float64
}

// Power returns the domain's power at the given activity in [0,1],
// floored at IdleActivity.
func (c Coeffs) Power(activity float64) float64 {
	if activity < c.IdleActivity {
		activity = c.IdleActivity
	}
	return c.Dyn*activity + c.Leak
}

// CoreCoeffs returns one core's power terms at fGHz.
func (p *Params) CoreCoeffs(fGHz float64) Coeffs {
	v := p.CoreVF.Voltage(fGHz)
	return Coeffs{Dyn: p.CoreDyn * v * v * fGHz, Leak: p.CoreLeak * v, IdleActivity: p.CoreIdleActivity}
}

// UncoreCoeffs returns the uncore's power terms at fGHz.
func (p *Params) UncoreCoeffs(fGHz float64) Coeffs {
	v := p.UncoreVF.Voltage(fGHz)
	return Coeffs{Dyn: p.UncoreDyn * v * v * fGHz, Leak: p.UncoreLeak * v, IdleActivity: p.UncoreIdleActivity}
}

// CorePower returns the power of one core at fGHz with the given activity
// in [0,1]. Activity folds together architectural utilisation and the
// reduced switching of memory-stalled cycles.
func (p Params) CorePower(fGHz, activity float64) float64 {
	return p.CoreCoeffs(fGHz).Power(activity)
}

// UncorePower returns the power of the uncore at fGHz with the given traffic
// activity in [0,1] (LLC/ring utilisation).
func (p Params) UncorePower(fGHz, activity float64) float64 {
	return p.UncoreCoeffs(fGHz).Power(activity)
}
