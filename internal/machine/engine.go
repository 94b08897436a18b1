package machine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/freq"
	"repro/internal/perfmon"
	"repro/internal/power"
	"repro/internal/workload"
)

// engine executes simulation quanta for one Machine. It owns the hot path:
// a persistent worker pool (no per-step goroutine spawn), per-core state
// sharded into engine-local buffers so core stepping runs lock-free on a
// snapshot/commit protocol, and run-to-next-event batching that executes
// many quanta per dispatch.
//
// Concurrency protocol: the Machine snapshots its state into the engine,
// dispatches one batch, then commits the engine's results back under its
// own mutex. During a batch no other code touches machine state (MSR
// handlers, components and the public accessors all run between batches),
// so core stepping needs no locks at all. Cross-core coupling — the miss
// demand EWMA, the queueing-model stall cost, package power and the
// firmware uncore governor — is updated once per quantum by whichever
// participant reaches the quantum barrier last, in deterministic core-index
// order, so Workers=1 and Workers=N walk bit-identical arithmetic.
//
// The engine owns source locking: the machine never calls a source
// concurrently. The serial loop calls it directly; the worker pool calls it
// through one lock (lockedSource). A source whose schedule depends on the
// order cores call it within a quantum (workload.OrderDependent) always
// runs on the serial loop, so every source is bit-identical across Workers.
type engine struct {
	cfg  Config
	pmu  *perfmon.PMU
	rapl *power.Rapl

	// Batch inputs, written by the snapshot and read by all participants.
	src       workload.Source
	stepSrc   workload.Source // src as core stepping calls it: bare, or via locked
	locked    lockedSource
	firmware  UncoreFirmware
	boundary  BoundarySource // src when it counts boundaries, else nil
	boundaryN int            // boundary count when the batch started
	dt        float64
	snaps     []coreSnap
	runs      []coreRun

	// Quantum-evolving globals. Only the barrier reducer writes these; the
	// barrier's release edge publishes them to the other participants.
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

	// Wall-clock self-accounting (Config.Profile). profBusy[w] is cumulative
	// nanoseconds worker w spent stepping cores (not barrier waits). Workers
	// write their own slot during a batch; the Machine reads between batches,
	// after wg.Wait establishes the ordering.
	profile  bool
	profBusy []int64

	// Persistent worker pool (spawned lazily on the first parallel batch).
	workers    int
	shards     [][2]int
	bar        barrier
	wake       []chan struct{}
	wg         sync.WaitGroup // batch checkout: workers still inside runShard
	stopCh     chan struct{}
	spawned    bool
	closeMu    sync.Once
	closedFlag atomic.Bool
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

// coreRun is the per-core mutable execution state during a batch; it is
// written only by the worker that owns the core's shard. invCompute and
// stallCoef cache the segment's per-instruction cost coefficients so the
// steady state (same segment across many quanta) pays one division per
// quantum instead of two plus a branch.
type coreRun struct {
	seg        workload.Segment
	segLeft    float64
	haveSeg    bool
	invCompute float64 // seconds of issue time per instruction
	stallCoef  float64 // exposed misses per instruction
}

func newEngine(cfg Config, pmu *perfmon.PMU, rapl *power.Rapl) *engine {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Cores {
		workers = cfg.Cores
	}
	e := &engine{
		cfg:     cfg,
		pmu:     pmu,
		rapl:    rapl,
		snaps:   make([]coreSnap, cfg.Cores),
		runs:    make([]coreRun, cfg.Cores),
		deltas:  make([]quantumDelta, cfg.Cores),
		accum:   make([]quantumDelta, cfg.Cores),
		retired: make([]float64, cfg.Cores),
		workers: workers,
		profile: cfg.Profile,
	}
	e.profBusy = make([]int64, workers)
	e.shards = make([][2]int, workers)
	for w := 0; w < workers; w++ {
		e.shards[w] = [2]int{w * cfg.Cores / workers, (w + 1) * cfg.Cores / workers}
	}
	return e
}

// run executes the prepared batch to completion.
func (e *engine) run() {
	e.stepSrc = e.src
	if e.workers <= 1 || orderDependent(e.src) || e.closed() {
		for !e.batchOver {
			first := e.quantum == 0
			var t0 time.Time
			if e.profile {
				t0 = time.Now() //cfvet:allow(detsource) profiling wall-clock behind Config.Profile; profBusy is excluded from reports, spec hashes and memo keys
			}
			for i := range e.runs {
				e.stepCoreFree(i, first, &e.deltas[i])
			}
			if e.profile {
				e.profBusy[0] += time.Since(t0).Nanoseconds() //cfvet:allow(detsource) profiling wall-clock behind Config.Profile; never feeds simulated state
			}
			e.reduce()
		}
		return
	}
	if e.src != nil {
		e.locked.Source = e.src
		e.stepSrc = &e.locked
	}
	e.ensureWorkers()
	e.wg.Add(e.workers - 1)
	for w := 1; w < e.workers; w++ {
		e.wake[w] <- struct{}{}
	}
	e.runShard(0)
	// Wait for every worker to leave runShard before the caller reuses the
	// batch state: a worker that has passed the final barrier but not yet
	// read batchOver must not observe the next batch's reset of it.
	e.wg.Wait()
}

// runShard steps the cores of one shard through the batch, synchronising
// with the other shards at the per-quantum barrier. The last participant to
// arrive performs the global reduction while the rest wait.
func (e *engine) runShard(w int) {
	lo, hi := e.shards[w][0], e.shards[w][1]
	for {
		first := e.quantum == 0
		var t0 time.Time
		if e.profile {
			t0 = time.Now() //cfvet:allow(detsource) profiling wall-clock behind Config.Profile; profBusy is excluded from reports, spec hashes and memo keys
		}
		for i := lo; i < hi; i++ {
			e.stepCoreFree(i, first, &e.deltas[i])
		}
		if e.profile {
			e.profBusy[w] += time.Since(t0).Nanoseconds() //cfvet:allow(detsource) profiling wall-clock behind Config.Profile; never feeds simulated state
		}
		e.bar.await(e.reduce)
		if e.batchOver {
			return
		}
	}
}

// reduce merges one quantum: per-core deltas into batch accumulators, the
// socket-wide miss demand EWMA, package power into RAPL, and the firmware
// uncore governor. It runs with every other participant parked at the
// barrier, and always walks cores in index order so the floating-point
// result is independent of the worker count.
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
		// A boundary source crossed a region boundary this quantum (the
		// barrier's release latency guarantees no segment of the next
		// region is in flight yet): end the batch here so the commit
		// lands exactly on the boundary. Always on — see BoundarySource.
		if e.boundary != nil && e.boundary.BoundaryCount() != e.boundaryN {
			e.batchOver = true
		}
	}
}

// stepCoreFree executes core i for one quantum, writing its accounting to
// d. It touches only engine-local state and the workload source through
// stepSrc — no machine locks on this path.
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
	src := e.stepSrc
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

// orderDependent reports whether s declares that its schedule depends on
// the order cores call it within a quantum; such a source always steps on
// the serial loop.
func orderDependent(s workload.Source) bool {
	o, ok := s.(workload.OrderDependent)
	return ok && o.OrderDependent()
}

// lockedSource is the worker pool's view of the batch's source: shards step
// concurrently, and one lock keeps their calls into the source serial.
type lockedSource struct {
	workload.Source
	mu sync.Mutex
}

func (l *lockedSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Source.NextSegment(core, now)
}

func (l *lockedSource) Complete(core int, now float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Source.Complete(core, now)
}

// ensureWorkers spawns the persistent pool on first use: workers-1
// goroutines parked on wake channels, shard 0 always executed by the
// dispatching goroutine.
func (e *engine) ensureWorkers() {
	if e.spawned {
		return
	}
	e.spawned = true
	e.stopCh = make(chan struct{})
	e.bar.participants = int32(e.workers)
	e.wake = make([]chan struct{}, e.workers)
	for w := 1; w < e.workers; w++ {
		e.wake[w] = make(chan struct{}, 1)
		go e.workerLoop(w)
	}
}

func (e *engine) workerLoop(w int) {
	for {
		select {
		case <-e.stopCh:
			return
		case <-e.wake[w]:
		}
		e.runShard(w)
		e.wg.Done()
	}
}

// close releases the worker pool. Safe to call multiple times and from the
// runtime cleanup goroutine; a closed engine falls back to the serial path.
func (e *engine) close() {
	e.closeMu.Do(func() {
		e.closedFlag.Store(true)
		if e.spawned {
			close(e.stopCh)
		}
	})
}

func (e *engine) closed() bool { return e.closedFlag.Load() }

// closedFlag is separate from closeMu so run() can check it without
// synchronising against a concurrent runtime cleanup (which only fires once
// the Machine is unreachable, i.e. when no run() can be in flight).

// barrier is a sense-reversing spin barrier. The last participant to arrive
// runs the reduction while the others wait for the generation flip; the
// atomic flip publishes everything the reduction wrote.
type barrier struct {
	participants int32
	count        atomic.Int32
	gen          atomic.Uint32
}

func (b *barrier) await(reduce func()) {
	gen := b.gen.Load()
	if b.count.Add(1) == b.participants {
		b.count.Store(0)
		reduce()
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == gen {
		runtime.Gosched()
	}
}
