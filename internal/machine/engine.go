package machine

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/power"
	"repro/internal/workload"
)

// engine executes simulation quanta for one Machine. It owns the hot path:
// per-core state copied into engine-local buffers so core stepping runs
// lock-free on a snapshot/commit protocol, and run-to-next-event batching
// that executes many quanta per dispatch.
//
// Protocol: the Machine snapshots its state into the engine, runs one
// batch on the calling goroutine, then commits the engine's results back
// under its own mutex. During a batch no other code touches machine state
// (MSR handlers, components and the public accessors all run between
// batches), so core stepping needs no locks at all. Each quantum one loop
// steps every core in index order — so the machine never calls a source
// concurrently — and then reduce updates the cross-core coupling: the miss
// demand EWMA, the queueing-model stall cost, package power and the
// firmware uncore governor.
type engine struct {
	cfg  Config
	rapl *power.Rapl

	// Batch inputs, written by the snapshot.
	src       workload.Source
	firmware  UncoreFirmware
	boundary  BoundarySource // src when it counts boundaries, else nil
	boundaryN int            // boundary count when the batch started
	dt        float64
	snaps     []coreSnap
	runs      []coreRun

	// Quantum-evolving globals, written by reduce.
	now                  float64
	demandEWMA           float64
	uncore               freq.Ratio
	uncoreMin, uncoreMax freq.Ratio
	stall                float64 // seconds per exposed miss this quantum
	quanta               int     // batch budget
	quantum              int     // quanta executed so far in this batch
	batchOver            bool

	// Batch accumulators committed to the Machine when the batch ends.
	totInstr, totMissL, totMissR float64
	uncoreGHzSecs                float64
	deltas                       []quantumDelta // reusable per-quantum buffer
	accum                        []quantumDelta // per-core totals over the batch
	retired                      []float64      // reusable PMU batch-update buffer
}

// coreSnap is the per-core input of one batch, immutable while it runs:
// frequencies and DDCM duty only change through MSR writes, which happen
// between batches.
type coreSnap struct {
	hz     float64 // core clock in Hz
	ghz    float64 // core clock in GHz (power model input)
	duty   float64 // DDCM duty, sanitised to (0, 1]
	stolen float64 // daemon tax charged against the batch's first quantum
}

// coreRun is the per-core mutable execution state during a batch.
// invCompute and stallCoef cache the segment's per-instruction cost
// coefficients so the steady state (same segment across many quanta) pays
// one division per quantum instead of two plus a branch.
type coreRun struct {
	seg        workload.Segment
	segLeft    float64
	haveSeg    bool
	invCompute float64 // seconds of issue time per instruction
	stallCoef  float64 // exposed misses per instruction
}

func newEngine(cfg Config, rapl *power.Rapl) *engine {
	return &engine{
		cfg:     cfg,
		rapl:    rapl,
		snaps:   make([]coreSnap, cfg.Cores),
		runs:    make([]coreRun, cfg.Cores),
		deltas:  make([]quantumDelta, cfg.Cores),
		accum:   make([]quantumDelta, cfg.Cores),
		retired: make([]float64, cfg.Cores),
	}
}

// run executes the prepared batch to completion: each quantum steps every
// core in index order, then reduces.
func (e *engine) run() {
	for !e.batchOver {
		first := e.quantum == 0
		for i := range e.runs {
			e.stepCoreFree(i, first, &e.deltas[i])
		}
		e.reduce()
	}
}

// reduce merges one quantum: per-core deltas into batch accumulators, the
// socket-wide miss demand EWMA, package power into RAPL, and the firmware
// uncore governor. It walks cores in index order.
func (e *engine) reduce() {
	dt := e.dt
	var instr, missL, missR, corePower float64
	anySeg := false
	for i := range e.deltas {
		d := &e.deltas[i]
		instr += d.instr
		missL += d.missLocal
		missR += d.missRemote
		a := &e.accum[i]
		a.instr += d.instr
		a.computeSec += d.computeSec
		a.stallSec += d.stallSec
		a.idleSec += d.idleSec
		// Under DDCM the stretched compute time switches transistors only
		// duty of the time; voltage and leakage are untouched, which is
		// the knob's classic energy disadvantage vs DVFS.
		s := &e.snaps[i]
		activity := (d.computeSec*s.duty + e.cfg.StallActivity*d.stallSec) / dt
		corePower += e.cfg.Power.CorePower(s.ghz, activity)
		if e.runs[i].haveSeg {
			anySeg = true
		}
	}
	missRate := (missL + missR) / dt
	alpha := e.cfg.TrafficAlpha
	e.demandEWMA = alpha*missRate + (1-alpha)*e.demandEWMA
	rho := e.cfg.Mem.Utilization(e.demandEWMA, e.uncore.GHz())
	pkgPower := corePower + e.cfg.Power.UncorePower(e.uncore.GHz(), rho) + e.cfg.Power.Base
	e.totInstr += instr
	e.totMissL += missL
	e.totMissR += missR
	e.uncoreGHzSecs += e.uncore.GHz() * dt
	e.now += dt
	e.rapl.Deposit(pkgPower*dt, e.now)

	// Firmware moves the uncore within the 0x620 range once per quantum.
	if e.firmware != nil && e.uncoreMin < e.uncoreMax {
		e.uncore = e.cfg.UncoreGrid.Clamp(e.firmware.Target(e.demandEWMA, e.uncoreMin, e.uncoreMax))
		if e.uncore < e.uncoreMin {
			e.uncore = e.uncoreMin
		}
		if e.uncore > e.uncoreMax {
			e.uncore = e.uncoreMax
		}
	}
	e.stall = e.cfg.Mem.StallPerMiss(e.uncore.GHz(), e.demandEWMA)

	e.quantum++
	if e.quantum >= e.quanta {
		e.batchOver = true
	}
	// Source drained and no core holds an in-flight segment: the machine is
	// finished, stop the batch early regardless of its quantum budget.
	if !anySeg {
		if e.src != nil && e.src.Done() {
			e.batchOver = true
		}
		// A boundary source crossed a region boundary this quantum: end
		// the batch here so the commit lands exactly on the boundary.
		// Always on — see BoundarySource.
		if e.boundary != nil && e.boundary.BoundaryCount() != e.boundaryN {
			e.batchOver = true
		}
	}
}

// stepCoreFree executes core i for one quantum, writing its accounting to
// d. It touches only engine-local state and the workload source — no
// machine locks on this path.
func (e *engine) stepCoreFree(i int, first bool, d *quantumDelta) {
	s := &e.snaps[i]
	r := &e.runs[i]
	budget := e.dt
	if first {
		budget -= s.stolen
	}
	*d = quantumDelta{}
	if budget <= 0 {
		// The daemon ate the whole quantum (pathological Tinv); the core
		// makes no progress and the overdraft is dropped.
		return
	}
	now := e.now
	src := e.src
	stallPerMiss := e.stall
	for budget > 1e-12 {
		if !r.haveSeg {
			if src == nil {
				break
			}
			seg, ok := src.NextSegment(i, now)
			if !ok {
				break
			}
			if !seg.Valid() {
				panic(fmt.Sprintf("machine: invalid segment %v from source", seg))
			}
			r.seg = seg
			r.segLeft = seg.Instructions
			r.haveSeg = true
			if r.segLeft <= 0 {
				r.haveSeg = false
				src.Complete(i, now)
				continue
			}
			ipc := seg.IPC
			if ipc <= 0 {
				ipc = e.cfg.BaseIPC
			}
			// DDCM gating stretches issue time by 1/duty (the clock only
			// runs duty of the time) while in-flight memory accesses drain
			// at full speed — the knob throttles compute without touching
			// voltage.
			r.invCompute = 1 / (ipc * s.hz * s.duty)
			r.stallCoef = seg.MissPerInstr * seg.StallFraction()
		}
		perInstrCompute := r.invCompute
		perInstrStall := r.stallCoef * stallPerMiss
		perInstr := perInstrCompute + perInstrStall
		instr := budget / perInstr
		finished := false
		if instr >= r.segLeft {
			instr = r.segLeft
			r.haveSeg = false
			finished = true
		}
		r.segLeft -= instr
		budget -= instr * perInstr
		d.instr += instr
		d.computeSec += instr * perInstrCompute
		d.stallSec += instr * perInstrStall
		miss := instr * r.seg.MissPerInstr
		d.missRemote += miss * r.seg.RemoteFrac
		d.missLocal += miss * (1 - r.seg.RemoteFrac)
		if finished {
			r.segLeft = 0
			src.Complete(i, now)
		}
	}
	if budget > 0 {
		d.idleSec += budget
	}
}
