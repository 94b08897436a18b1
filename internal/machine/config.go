package machine

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/mem"
	"repro/internal/power"
)

// Config describes the simulated socket.
type Config struct {
	// Cores is the number of physical cores (the paper's part has 20).
	Cores int
	// CoreGrid and UncoreGrid are the DVFS and UFS frequency grids.
	CoreGrid   freq.Grid
	UncoreGrid freq.Grid
	// QuantumSec is the simulation step. It must divide the RAPL update
	// interval evenly for faithful counter behaviour; 0.5 ms default.
	QuantumSec float64
	// StallActivity is the effective switching activity of a core during a
	// memory stall (clock running, pipeline mostly idle).
	StallActivity float64
	// TrafficAlpha is the EWMA smoothing constant for the miss-demand
	// estimate used by the queueing model and the firmware UFS governor.
	TrafficAlpha float64
	// Mem and Power are the memory-path and power models.
	Mem   mem.Params
	Power power.Params
}

// DefaultConfig returns the paper's machine: a 20-core Haswell-class socket,
// core DVFS 1.2–2.3 GHz, uncore 1.2–3.0 GHz.
func DefaultConfig() Config {
	return Config{
		Cores:         20,
		CoreGrid:      freq.HaswellCore(),
		UncoreGrid:    freq.HaswellUncore(),
		QuantumSec:    0.5e-3,
		StallActivity: 0.28,
		TrafficAlpha:  0.35,
		Mem:           mem.DefaultParams(),
		Power:         power.DefaultParams(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: cores must be positive, got %d", c.Cores)
	}
	if !c.CoreGrid.Valid() || !c.UncoreGrid.Valid() {
		return fmt.Errorf("machine: invalid frequency grids %v %v", c.CoreGrid, c.UncoreGrid)
	}
	if c.QuantumSec <= 0 {
		return fmt.Errorf("machine: quantum must be positive, got %g", c.QuantumSec)
	}
	if c.TrafficAlpha <= 0 || c.TrafficAlpha > 1 {
		return fmt.Errorf("machine: traffic alpha must be in (0,1], got %g", c.TrafficAlpha)
	}
	return nil
}
