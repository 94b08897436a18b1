package power

import (
	"math"
	"sync"

	"repro/internal/msr"
)

// Rapl emulates the package RAPL energy counter: a 32-bit register counting
// fixed energy units (2^-14 J on Haswell servers) that software reads from
// MSR_PKG_ENERGY_STATUS. Like the hardware, the visible register only
// advances on update-interval boundaries (1 ms on Haswell), so two reads
// within the same millisecond return the same value — the reason the paper
// picks Tinv as a multiple of 1 ms (§5.4).
type Rapl struct {
	mu             sync.Mutex
	unitJ          float64
	updateInterval float64 // seconds
	pendingJ       float64 // deposited but not yet published
	residualJ      float64 // sub-unit remainder after publishing
	counter        uint32  // published register image
	lastPublish    float64 // sim time of last publish
	totalJ         float64 // exact ground truth for experiment reporting
}

// NewRapl creates a counter with the given energy unit (joules per tick) and
// update interval in seconds.
func NewRapl(unitJ, updateInterval float64) *Rapl {
	return &Rapl{unitJ: unitJ, updateInterval: updateInterval}
}

// NewHaswellRapl creates the counter with Haswell defaults: 2^-14 J units,
// 1 ms updates.
func NewHaswellRapl() *Rapl {
	return NewRapl(msr.EnergyUnitJoules(msr.DefaultRaplPowerUnitRaw), 1e-3)
}

// Deposit accumulates joules consumed up to simulation time now (seconds)
// and publishes to the visible register on update-interval boundaries.
func (r *Rapl) Deposit(joules, now float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.totalJ += joules
	r.pendingJ += joules
	if now-r.lastPublish < r.updateInterval {
		return
	}
	r.publishLocked(now)
}

func (r *Rapl) publishLocked(now float64) {
	total := r.pendingJ + r.residualJ
	ticks := math.Floor(total / r.unitJ)
	r.residualJ = total - ticks*r.unitJ
	r.pendingJ = 0
	r.counter += uint32(ticks) // wraps naturally at 2^32
	r.lastPublish = now
}

// RaplState is the counter's complete mutable state, exported for machine
// snapshots. Every field is either an exact binary float or an integer, so
// a restore reproduces the counter bit for bit.
type RaplState struct {
	PendingJ    float64
	ResidualJ   float64
	Counter     uint32
	LastPublish float64
	TotalJ      float64
}

// State exports the mutable accumulator state.
func (r *Rapl) State() RaplState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RaplState{
		PendingJ:    r.pendingJ,
		ResidualJ:   r.residualJ,
		Counter:     r.counter,
		LastPublish: r.lastPublish,
		TotalJ:      r.totalJ,
	}
}

// SetState overwrites the accumulators from a snapshot taken by State.
func (r *Rapl) SetState(s RaplState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingJ = s.PendingJ
	r.residualJ = s.ResidualJ
	r.counter = s.Counter
	r.lastPublish = s.LastPublish
	r.totalJ = s.TotalJ
}

// Counter returns the visible 32-bit register image.
func (r *Rapl) Counter() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter
}

// TotalJoules returns the exact accumulated energy (experiment ground
// truth; not visible to the profiled software).
func (r *Rapl) TotalJoules() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalJ
}
