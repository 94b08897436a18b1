// Package mem is the analytic model of the uncore memory subsystem: the
// latency an LLC miss pays as a function of uncore frequency (ring/LLC
// cycles plus DRAM access), the achievable miss bandwidth as a function of
// uncore frequency, and the queueing inflation suffered as demand approaches
// that bandwidth.
//
// Two modelling choices carry the paper's observed behaviour:
//
//  1. Bandwidth depends only weakly on uncore frequency (the DRAM channels
//     clock independently; the ring mostly adds latency, not a throughput
//     wall), so dropping UF on a compute-bound code costs little time while
//     saving uncore power — why the paper's Default firmware can sit at
//     2.2 GHz and why Cuttlefish picks UFopt near min for low-TIPI slabs.
//  2. Latency has a 1/f ring component plus a fixed DRAM component, so
//     raising UF helps memory-bound codes with diminishing returns — why
//     the JPI-optimal UF for high-TIPI slabs is interior (≈2.2 GHz), not
//     max (Table 2).
package mem

// Params describe the memory path.
type Params struct {
	// RingCycles is the number of uncore-clock cycles an LLC miss spends in
	// the ring, LLC lookup and memory controller front end.
	RingCycles float64
	// DRAMLatency is the uncore-frequency-independent DRAM access time in
	// seconds.
	DRAMLatency float64
	// MLP is the memory-level parallelism: how many misses a core's
	// out-of-order window and prefetchers overlap, i.e. the divisor that
	// converts miss latency into per-miss stall time.
	MLP float64
	// PeakBandwidth is the saturated miss throughput (misses/second,
	// socket-wide) with the uncore at maximum frequency.
	PeakBandwidth float64
	// BWFloorFrac is the fraction of PeakBandwidth still achievable with
	// the uncore at its minimum frequency.
	BWFloorFrac float64
	// BWKneeGHz is the uncore frequency at which the miss path stops being
	// ring-limited and the DRAM channels saturate: bandwidth grows linearly
	// from the floor up to the knee and is flat beyond it. The flat region
	// is why raising UF past ≈2.4 GHz buys memory-bound codes power but no
	// throughput — the source of the paper's interior UFopt (Table 2).
	BWKneeGHz float64
	// UncoreMinGHz and UncoreMaxGHz anchor the bandwidth interpolation.
	UncoreMinGHz, UncoreMaxGHz float64
	// MaxUtilization caps the queueing model: demand beyond this fraction
	// of bandwidth saturates rather than diverging.
	MaxUtilization float64
}

// DefaultParams is calibrated against the paper's two-socket Haswell with
// interleaved allocation: ~85 GB/s of achievable line bandwidth
// (≈1.3e9 64-byte misses/s), ~80 ns loaded LLC-miss latency at max uncore.
func DefaultParams() Params {
	return Params{
		RingCycles:     52,
		DRAMLatency:    62e-9,
		MLP:            10,
		PeakBandwidth:  1.30e9,
		BWFloorFrac:    0.55,
		BWKneeGHz:      2.4,
		UncoreMinGHz:   1.2,
		UncoreMaxGHz:   3.0,
		MaxUtilization: 0.95,
	}
}

// Latency returns the unloaded LLC-miss latency in seconds at the given
// uncore frequency.
func (p Params) Latency(ufGHz float64) float64 {
	return p.RingCycles/(ufGHz*1e9) + p.DRAMLatency
}

// Bandwidth returns the achievable miss throughput (misses/second) at the
// given uncore frequency: linear from the floor at UncoreMinGHz to the peak
// at BWKneeGHz, flat beyond.
func (p Params) Bandwidth(ufGHz float64) float64 {
	knee := p.BWKneeGHz
	if knee <= p.UncoreMinGHz {
		knee = p.UncoreMaxGHz
	}
	span := knee - p.UncoreMinGHz
	frac := 0.0
	if span > 0 {
		frac = (ufGHz - p.UncoreMinGHz) / span
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return p.PeakBandwidth * (p.BWFloorFrac + (1-p.BWFloorFrac)*frac)
}

// Path is the memory path at one uncore frequency: its frequency-only
// terms plus the constants that turn demand into a stall cost. The engine
// builds one per uncore ratio and evaluates it per quantum; Params'
// methods call the same code, so a cached Path changes no result bit.
type Path struct {
	Bandwidth      float64 // achievable miss throughput, misses/second
	Latency        float64 // unloaded LLC-miss latency, seconds
	MLP            float64
	MaxUtilization float64
}

// At returns the memory path at the given uncore frequency.
func (p *Params) At(ufGHz float64) Path {
	return Path{Bandwidth: p.Bandwidth(ufGHz), Latency: p.Latency(ufGHz), MLP: p.MLP, MaxUtilization: p.MaxUtilization}
}

// Utilization returns demand/bandwidth clamped to [0, MaxUtilization];
// demand is in misses/second.
func (q Path) Utilization(demand float64) float64 {
	if q.Bandwidth <= 0 {
		return q.MaxUtilization
	}
	rho := demand / q.Bandwidth
	if rho > q.MaxUtilization {
		rho = q.MaxUtilization
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

// LoadedLatency returns the per-miss latency in seconds at utilisation rho.
func (q Path) LoadedLatency(rho float64) float64 {
	return q.Latency * QueueFactor(rho)
}

// StallAt converts the loaded latency at utilisation rho into the per-miss
// stall time a core observes after MLP overlap.
func (q Path) StallAt(rho float64) float64 {
	return q.LoadedLatency(rho) / q.MLP
}

// Utilization returns demand/bandwidth clamped to MaxUtilization; demand is
// in misses/second.
func (p Params) Utilization(demand, ufGHz float64) float64 {
	return p.At(ufGHz).Utilization(demand)
}

// QueueFactor returns the latency inflation at utilisation rho using a
// G/G/1-flavoured ρ²/(2(1−ρ)) waiting-time term.
func QueueFactor(rho float64) float64 {
	if rho >= 1 {
		rho = 0.999
	}
	if rho < 0 {
		rho = 0
	}
	return 1 + rho*rho/(2*(1-rho))
}

// LoadedLatency returns the per-miss latency in seconds at the given uncore
// frequency under the given demand (misses/second).
func (p Params) LoadedLatency(ufGHz, demand float64) float64 {
	q := p.At(ufGHz)
	return q.LoadedLatency(q.Utilization(demand))
}

// StallPerMiss converts loaded latency into the per-miss stall time a core
// observes after MLP overlap.
func (p Params) StallPerMiss(ufGHz, demand float64) float64 {
	q := p.At(ufGHz)
	return q.StallAt(q.Utilization(demand))
}
