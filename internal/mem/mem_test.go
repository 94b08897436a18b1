package mem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/freq"
)

func TestLatencyDecreasingInUF(t *testing.T) {
	p := DefaultParams()
	prev := 1.0
	for uf := 1.2; uf <= 3.01; uf += 0.1 {
		l := p.Latency(uf)
		if l >= prev {
			t.Errorf("latency not strictly decreasing at %.1f GHz", uf)
		}
		prev = l
	}
}

func TestLatencyMagnitude(t *testing.T) {
	p := DefaultParams()
	if l := p.Latency(3.0); l < 50e-9 || l > 120e-9 {
		t.Errorf("latency at 3.0 GHz = %.1f ns, want DRAM-scale (50-120 ns)", l*1e9)
	}
	if l := p.Latency(1.2); l <= p.Latency(3.0) {
		t.Error("low uncore must pay more latency")
	}
}

func TestLatencyDiminishingReturns(t *testing.T) {
	// The ring component shrinks as 1/f, so each further UF step buys less:
	// latency(1.2)-latency(2.1) must exceed latency(2.1)-latency(3.0).
	p := DefaultParams()
	d1 := p.Latency(1.2) - p.Latency(2.1)
	d2 := p.Latency(2.1) - p.Latency(3.0)
	if d1 <= d2 {
		t.Errorf("no diminishing returns: step1 %.2f ns, step2 %.2f ns", d1*1e9, d2*1e9)
	}
}

func TestBandwidthShape(t *testing.T) {
	p := DefaultParams()
	if p.Bandwidth(3.0) != p.PeakBandwidth {
		t.Errorf("bandwidth at max UF = %g, want peak %g", p.Bandwidth(3.0), p.PeakBandwidth)
	}
	floor := p.Bandwidth(1.2)
	want := p.PeakBandwidth * p.BWFloorFrac
	if floor != want {
		t.Errorf("bandwidth at min UF = %g, want %g", floor, want)
	}
	// The floor still carries half of peak: DRAM clocks independently.
	if floor < 0.5*p.PeakBandwidth {
		t.Error("min-UF bandwidth implausibly low")
	}
	// Flat beyond the knee: raising UF past the knee buys no throughput,
	// which is what makes the memory-bound UF optimum interior.
	if p.Bandwidth(p.BWKneeGHz) != p.PeakBandwidth {
		t.Error("bandwidth must reach peak at the knee")
	}
	if p.Bandwidth(2.7) != p.PeakBandwidth {
		t.Error("bandwidth must be flat past the knee")
	}
	// Clamped outside the grid.
	if p.Bandwidth(0.5) != floor || p.Bandwidth(4.0) != p.PeakBandwidth {
		t.Error("bandwidth must clamp outside the UF grid")
	}
}

func TestUtilizationClamps(t *testing.T) {
	p := DefaultParams()
	if rho := p.Utilization(1e12, 3.0); rho != p.MaxUtilization {
		t.Errorf("overload utilisation = %g, want cap %g", rho, p.MaxUtilization)
	}
	if rho := p.Utilization(-5, 3.0); rho != 0 {
		t.Errorf("negative demand utilisation = %g, want 0", rho)
	}
}

func TestQueueFactor(t *testing.T) {
	if QueueFactor(0) != 1 {
		t.Error("empty queue must not inflate latency")
	}
	if QueueFactor(0.9) <= QueueFactor(0.5) {
		t.Error("queue factor must grow with utilisation")
	}
	if f := QueueFactor(2.0); f <= 1 || f > 1000 {
		t.Errorf("saturated queue factor = %g, want finite > 1", f)
	}
}

func TestLoadedLatencyMonotoneInDemand(t *testing.T) {
	p := DefaultParams()
	low := p.LoadedLatency(2.2, 0.1e9)
	high := p.LoadedLatency(2.2, 1.2e9)
	if high <= low {
		t.Error("loaded latency must grow with demand")
	}
}

func TestStallPerMissUsesMLP(t *testing.T) {
	p := DefaultParams()
	if got, want := p.StallPerMiss(3.0, 0), p.Latency(3.0)/p.MLP; got != want {
		t.Errorf("stall per miss = %g, want %g", got, want)
	}
}

// TestPathMatchesParamsBitForBit pins the engine's per-uncore-ratio
// cache: on every uncore ratio, from idle to twice the bandwidth, the
// Path's utilisation and the stall cost computed from that same rho
// equal Params' methods and the formula written out here, to the bit.
func TestPathMatchesParamsBitForBit(t *testing.T) {
	p := DefaultParams()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, r := range freq.HaswellUncore().Ratios() {
		uf := r.GHz()
		bw := p.Bandwidth(uf)
		q := p.At(uf)
		for _, d := range []float64{0, 1e8, 0.5 * bw, bw, 2 * bw} {
			rho := min(max(d/bw, 0), p.MaxUtilization)
			stall := p.Latency(uf) * QueueFactor(rho) / p.MLP
			gotRho := q.Utilization(d)
			gotStall := q.StallAt(gotRho)
			if !same(gotRho, rho) || !same(gotRho, p.Utilization(d, uf)) {
				t.Errorf("%v demand %g: cached rho %v, Params %v, formula %v", r, d, gotRho, p.Utilization(d, uf), rho)
			}
			if !same(gotStall, stall) || !same(gotStall, p.StallPerMiss(uf, d)) {
				t.Errorf("%v demand %g: cached stall %v, Params %v, formula %v", r, d, gotStall, p.StallPerMiss(uf, d), stall)
			}
		}
	}
}

// Property: for any demand and on-grid UF, stall time is positive and
// bounded by the saturated queue inflation of the min-UF latency.
func TestStallBoundsQuick(t *testing.T) {
	p := DefaultParams()
	bound := p.Latency(p.UncoreMinGHz) * QueueFactor(p.MaxUtilization) / p.MLP
	prop := func(ufRaw uint8, demandRaw uint32) bool {
		uf := 1.2 + float64(ufRaw%19)*0.1
		demand := float64(demandRaw) // up to ~4e9 misses/s
		s := p.StallPerMiss(uf, demand)
		return s > 0 && s <= bound+1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
