// Package machine is the discrete-time simulator of a multicore Intel-style
// socket: per-core DVFS, a socket-wide uncore frequency, an analytic
// memory-path model, a CMOS power model feeding an emulated RAPL counter,
// and a PMU exposing INST_RETIRED and TOR_INSERT through the MSR file.
//
// Software under test (the parallel runtimes and the Cuttlefish daemon)
// interacts with the machine only the way it would with real hardware:
// work is supplied as instruction/miss segments, frequencies are requested
// by writing IA32_PERF_CTL and MSR 0x620 through the msr-safe device, and
// the daemon reads the PMU and RAPL registers. This keeps the control path
// under study identical to the paper's.
//
// Execution is driven by an internal engine (engine.go): quanta run in
// batches between component deadlines on a snapshot/commit protocol, one
// loop stepping every core, with a min-heap event queue ordering the
// components.
package machine

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/freq"
	"repro/internal/msr"
	"repro/internal/perfmon"
	"repro/internal/power"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// coreState is one simulated core.
type coreState struct {
	ratio   freq.Ratio
	duty    float64 // DDCM duty fraction (1.0 = unmodulated)
	seg     workload.Segment
	segLeft float64 // instructions remaining in seg
	haveSeg bool
	stolen  float64 // seconds of the next quantum consumed by a daemon

	// lifetime accounting (simulation ground truth, not PMU-visible)
	busySec  float64
	stallSec float64
	idleSec  float64
}

// quantumDelta is the per-core result of executing one quantum, merged into
// machine state after all cores ran.
type quantumDelta struct {
	instr      float64
	missLocal  float64
	missRemote float64
	computeSec float64
	stallSec   float64
	idleSec    float64
}

// Component is stepped at a fixed simulated period; the Cuttlefish daemon
// and trace recorders are components. Tick returns the CPU time the
// component consumed on its pinned core, which the machine steals from that
// core's next quantum (the paper's daemon time-shares core 0).
type Component struct {
	Period float64
	Core   int
	Tick   func(now float64) (cpuTax float64)

	next float64
	seq  uint64 // scheduling order, breaks deadline ties deterministically
	idx  int    // position in the event heap, -1 when unscheduled
}

// Machine is one simulated socket executing a workload source.
type Machine struct {
	cfg    Config
	file   *msr.File
	dev    *msr.Device
	pmu    *perfmon.PMU
	rapl   *power.Rapl
	engine *engine

	mu          sync.Mutex
	cores       []coreState
	uncoreMin   freq.Ratio // firmware floor from MSR 0x620
	uncoreMax   freq.Ratio // firmware ceiling from MSR 0x620
	uncoreRatio freq.Ratio // actual operating point
	firmware    UncoreFirmware
	now         float64
	demandEWMA  float64 // misses/second arriving at the uncore
	events      eventQueue
	src         workload.Source
	boundary    BoundarySource // src when it counts boundaries, else nil

	totalInstr    float64
	totalMissL    float64
	totalMissR    float64
	uncoreGHzSecs float64 // ∫ uncore frequency dt, for time-weighted averages

	// engine self-accounting, read through Profile
	profBatch  int64
	profQuanta int64

	dueBuf []*Component // reusable due-component buffer

	// timeline is the optional flight recorder. It is runtime wiring, not
	// configuration: it lives outside Config so snapshots, spec hashes and
	// memo keys never see it, and a nil recorder costs nothing.
	timeline *timeline.Recorder
}

// Profile is the engine's self-accounting: how many batches it has
// dispatched since boot and how many quanta they ran. Both are counts of
// simulated work, so two identical runs report the same Profile.
type Profile struct {
	Batches int64 `json:"batches"`
	Quanta  int64 `json:"quanta"`
}

// Profile returns the batch and quantum counts accumulated since boot.
func (m *Machine) Profile() Profile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Profile{Batches: m.profBatch, Quanta: m.profQuanta}
}

// UncoreFirmware decides the uncore operating point each millisecond when
// MSR 0x620 leaves it a range to move in (the Default execution's "Auto"
// BIOS mode, §2). A nil firmware pins the uncore at the range maximum.
type UncoreFirmware interface {
	// Target returns the desired uncore ratio given the smoothed miss
	// demand (misses/second) and the legal range.
	Target(demand float64, min, max freq.Ratio) freq.Ratio
}

// New creates a machine. The source may be nil (all cores idle); it can be
// attached later with SetSource.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		file:  msr.NewFile(cfg.Cores),
		pmu:   perfmon.New(cfg.Cores),
		rapl:  power.NewHaswellRapl(),
		cores: make([]coreState, cfg.Cores),
	}
	m.dev = msr.NewDevice(m.file, msr.DefaultAllowlist())
	for i := range m.cores {
		m.cores[i].ratio = cfg.CoreGrid.Max
		m.cores[i].duty = 1.0
		// Seed the stored register image to the boot state so msr-safe
		// Save/Restore brackets capture real values.
		m.file.Poke(msr.IA32PerfCtl, i, msr.PerfCtlRaw(uint8(cfg.CoreGrid.Max)))
	}
	m.uncoreMin = cfg.UncoreGrid.Min
	m.uncoreMax = cfg.UncoreGrid.Max
	m.uncoreRatio = cfg.UncoreGrid.Max
	m.file.Poke(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(uint8(cfg.UncoreGrid.Min), uint8(cfg.UncoreGrid.Max)))
	m.pmu.InstallHandlers(m.file)
	m.installFrequencyHandlers()
	m.installRaplHandler()
	m.engine = newEngine(cfg, m.rapl)
	return m, nil
}

// MustNew is New for configurations known good at compile time.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Close is a no-op kept for callers that tear machines down explicitly: a
// Machine holds no goroutines or other resources beyond its memory.
func (m *Machine) Close() {}

// SetSource attaches the workload. It must be called before Run. Sources
// implementing BoundarySource additionally get boundary batching: every
// batch ends at a region boundary, making those points snapshotable.
func (m *Machine) SetSource(s workload.Source) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.src = s
	m.boundary, _ = s.(BoundarySource)
}

func (m *Machine) installFrequencyHandlers() {
	m.file.Install(msr.IA32PerfCtl, msr.Handler{
		Write: func(core int, v uint64) error {
			r := m.cfg.CoreGrid.Clamp(freq.Ratio(msr.PerfCtlRatio(v)))
			m.mu.Lock()
			m.cores[core].ratio = r
			m.mu.Unlock()
			return nil
		},
	})
	m.file.Install(msr.IA32PerfStatus, msr.Handler{
		Read: func(core int) uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return msr.PerfCtlRaw(uint8(m.cores[core].ratio))
		},
	})
	m.file.Install(msr.IA32ClockModulation, msr.Handler{
		Write: func(core int, v uint64) error {
			m.mu.Lock()
			m.cores[core].duty = msr.ClockModDuty(v)
			m.mu.Unlock()
			return nil
		},
	})
	m.file.Install(msr.UncoreRatioLimit, msr.Handler{
		Write: func(_ int, v uint64) error {
			lo, hi := msr.UncoreLimitRatios(v)
			if lo > hi {
				return fmt.Errorf("machine: uncore limit min %d > max %d", lo, hi)
			}
			m.mu.Lock()
			m.uncoreMin = m.cfg.UncoreGrid.Clamp(freq.Ratio(lo))
			m.uncoreMax = m.cfg.UncoreGrid.Clamp(freq.Ratio(hi))
			// Snap the operating point into the new range immediately, as
			// hardware does; the firmware may move it within range later.
			if m.uncoreRatio < m.uncoreMin {
				m.uncoreRatio = m.uncoreMin
			}
			if m.uncoreRatio > m.uncoreMax {
				m.uncoreRatio = m.uncoreMax
			}
			m.mu.Unlock()
			return nil
		},
		Read: func(int) uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return msr.UncoreLimitRaw(uint8(m.uncoreMin), uint8(m.uncoreMax))
		},
	})
}

func (m *Machine) installRaplHandler() {
	m.file.Install(msr.PkgEnergyStatus, msr.Handler{
		Read: func(int) uint64 { return uint64(m.rapl.Counter()) },
	})
}

// SetFirmware installs the Auto-mode uncore governor used by Default runs.
func (m *Machine) SetFirmware(fw UncoreFirmware) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.firmware = fw
}

// Schedule registers a periodic component starting at time start.
func (m *Machine) Schedule(c *Component, start float64) {
	if c.Period <= 0 {
		panic("machine: component period must be positive")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c.next = start
	m.events.schedule(c)
}

// Unschedule removes a component from the machine so it never ticks again.
// It reports whether the component was scheduled. Stopping a daemon without
// unscheduling its component leaves a dead event firing every period.
func (m *Machine) Unschedule(c *Component) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events.unschedule(c)
}

// Device returns the msr-safe access path software should use.
func (m *Machine) Device() *msr.Device { return m.dev }

// File returns the raw register file (hardware-model use only).
func (m *Machine) File() *msr.File { return m.file }

// PMU returns the performance-monitoring unit.
func (m *Machine) PMU() *perfmon.PMU { return m.pmu }

// Rapl returns the package energy counter.
func (m *Machine) Rapl() *power.Rapl { return m.rapl }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the simulation time in seconds.
func (m *Machine) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// UncoreRatio returns the current uncore operating point.
func (m *Machine) UncoreRatio() freq.Ratio {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.uncoreRatio
}

// CoreRatio returns core i's current frequency ratio.
func (m *Machine) CoreRatio(i int) freq.Ratio {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cores[i].ratio
}

// DemandEWMA returns the smoothed LLC-miss demand in misses/second.
func (m *Machine) DemandEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.demandEWMA
}

// TotalInstructions returns the exact count of retired instructions.
func (m *Machine) TotalInstructions() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalInstr
}

// TotalEnergy returns the exact package energy in joules.
func (m *Machine) TotalEnergy() float64 { return m.rapl.TotalJoules() }

// AvgUncoreGHz returns the time-weighted average uncore frequency since
// boot — what the paper's Table 2 reports as the Default execution's
// effective uncore setting.
func (m *Machine) AvgUncoreGHz() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.now == 0 {
		return m.uncoreRatio.GHz()
	}
	return m.uncoreGHzSecs / m.now
}

// TotalMisses returns the exact local and remote TOR insert counts.
func (m *Machine) TotalMisses() (local, remote float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalMissL, m.totalMissR
}

// Utilization returns the lifetime busy fraction of core i.
func (m *Machine) Utilization(i int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.cores[i]
	total := c.busySec + c.stallSec + c.idleSec
	if total == 0 {
		return 0
	}
	return (c.busySec + c.stallSec) / total
}

// SetTimeline attaches a flight recorder. Like SetSource it is runtime
// wiring: the recorder is invisible to snapshots and machine identity.
// A nil recorder disables recording.
func (m *Machine) SetTimeline(rec *timeline.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timeline = rec
}

// Timeline returns the attached flight recorder (nil when disabled).
// Governors fetch it at attach time to record their decision events.
func (m *Machine) Timeline() *timeline.Recorder {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timeline
}

// RecordTimeline captures one machine sample into the attached recorder.
// Call it at quiescent cuts (between batches, no lock held) — the same
// points RunBoundaries fires its callback. A nil recorder makes this a
// no-op with no allocation.
func (m *Machine) RecordTimeline() {
	m.mu.Lock()
	rec := m.timeline
	if rec == nil {
		m.mu.Unlock()
		return
	}
	s := timeline.Sample{
		T:          m.now,
		Cores:      make([]int, len(m.cores)),
		Uncore:     int(m.uncoreRatio),
		Instr:      m.totalInstr,
		MissLocal:  m.totalMissL,
		MissRemote: m.totalMissR,
		DemandEWMA: m.demandEWMA,
	}
	for i := range m.cores {
		s.Cores[i] = int(m.cores[i].ratio)
		s.SumCoreGHz += m.cores[i].ratio.GHz()
	}
	b := m.boundary
	m.mu.Unlock()
	if b != nil {
		s.Boundary = b.BoundaryCount()
	}
	s.EnergyJ = m.rapl.TotalJoules()
	rec.AddSample(s)
}

// StealCoreTime removes sec seconds from core i's next quantum; used by
// daemon components to model time-sharing with the application.
func (m *Machine) StealCoreTime(i int, sec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cores[i].stolen += sec
}

// Run advances the simulation until the source reports done and every core
// has drained its in-flight segment, or maxSim seconds have elapsed,
// whichever comes first. It returns the elapsed simulated time.
//
// Run executes quanta in batches: the event queue bounds each batch at the
// next component deadline, so the hot loop dispatches once per deadline
// window instead of once per quantum.
func (m *Machine) Run(maxSim float64) float64 { return m.run(maxSim, nil) }

// RunBoundaries is Run with a region-boundary callback for sources that
// implement BoundarySource: every time the boundary count advances, fn is
// invoked (between batches, with no machine lock held and any due
// components already fired) with the new count — the exact state Snapshot
// can capture. Returning false stops further callbacks; the simulation
// itself continues. The callback never fires for the count observed at
// entry, so a resumed run does not re-snapshot its own restore point.
func (m *Machine) RunBoundaries(maxSim float64, fn func(regions int) bool) float64 {
	return m.run(maxSim, fn)
}

func (m *Machine) run(maxSim float64, fn func(int) bool) float64 {
	start := m.Now()
	deadline := start + maxSim
	dt := m.cfg.QuantumSec
	lastRegions := 0
	if fn != nil {
		if n, ok := m.boundaryCount(); ok {
			lastRegions = n
		} else {
			fn = nil
		}
	}
	for {
		if fn != nil {
			if n, _ := m.boundaryCount(); n != lastRegions {
				lastRegions = n
				if !fn(n) {
					fn = nil
				}
			}
		}
		if m.Finished() {
			break
		}
		now := m.Now()
		if now-start >= maxSim {
			break
		}
		k := quantaUntil(now, deadline, dt)
		if next, ok := m.nextEvent(); ok {
			if ke := quantaUntil(now, next-1e-12, dt); ke < k {
				k = ke
			}
		}
		m.runBatch(k)
		m.fireDue()
	}
	return m.Now() - start
}

// quantaUntil returns how many quanta of length dt it takes to advance from
// now to at least target (minimum one — the driver always makes progress).
func quantaUntil(now, target, dt float64) int {
	k := math.Ceil((target - now) / dt)
	if k < 1 {
		return 1
	}
	if k > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// boundaryCount reads the attached BoundarySource's completed-region
// count; ok is false when the source counts no boundaries.
func (m *Machine) boundaryCount() (int, bool) {
	m.mu.Lock()
	b := m.boundary
	m.mu.Unlock()
	if b == nil {
		return 0, false
	}
	return b.BoundaryCount(), true
}

func (m *Machine) nextEvent() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events.peek()
}

// Finished reports whether the workload is complete: the source has no more
// work and no core holds a partially executed segment.
func (m *Machine) Finished() bool {
	m.mu.Lock()
	src := m.src
	for i := range m.cores {
		if m.cores[i].haveSeg {
			m.mu.Unlock()
			return false
		}
	}
	m.mu.Unlock()
	return src != nil && src.Done()
}

// Step advances one quantum: execute all cores, merge accounting into the
// PMU, integrate power into RAPL, step the firmware governor and fire due
// components.
func (m *Machine) Step() {
	m.runBatch(1)
	m.fireDue()
}

// runBatch snapshots machine state into the engine, executes up to quanta
// quanta lock-free, and commits the results. Between snapshot and commit no
// component or MSR handler runs, which is what makes the lock-free core
// stepping sound.
func (m *Machine) runBatch(quanta int) {
	e := m.engine
	m.mu.Lock()
	for i := range m.cores {
		c := &m.cores[i]
		duty := c.duty
		if !(duty > 0 && duty <= 1) {
			duty = 1
		}
		s, r := &e.snaps[i], &e.runs[i]
		if s.ratio != c.ratio || s.duty != duty {
			// A DVFS or DDCM write since the last batch (duty is never 0
			// here, so the first batch lands here too): its effect reaches
			// a carried segment's remaining instructions.
			*s = coreSnap{ratio: c.ratio, hz: c.ratio.Hz(), power: m.cfg.Power.CoreCoeffs(c.ratio.GHz()), duty: duty}
			r.ipc = 0
		}
		s.stolen = c.stolen
		c.stolen = 0
		r.seg, r.segLeft, r.haveSeg = c.seg, c.segLeft, c.haveSeg
		if r.haveSeg {
			r.setCost(s)
		}
		e.accum[i] = quantumDelta{}
	}
	e.src = m.src
	e.firmware = m.firmware
	e.boundary = m.boundary
	e.dt = m.cfg.QuantumSec
	e.now = m.now
	e.demandEWMA = m.demandEWMA
	if m.uncoreRatio != e.uncore {
		e.setUncore(m.uncoreRatio)
	}
	e.uncoreMin, e.uncoreMax = m.uncoreMin, m.uncoreMax
	e.stall = e.path.StallAt(e.path.Utilization(e.demandEWMA))
	e.quanta = quanta
	e.quantum = 0
	e.batchOver = false
	e.totInstr, e.totMissL, e.totMissR, e.uncoreGHzSecs = 0, 0, 0, 0
	m.mu.Unlock()
	if e.boundary != nil {
		e.boundaryN = e.boundary.BoundaryCount()
	}

	e.run()

	m.mu.Lock()
	for i := range m.cores {
		c := &m.cores[i]
		r := &e.runs[i]
		c.seg, c.segLeft, c.haveSeg = r.seg, r.segLeft, r.haveSeg
		a := &e.accum[i]
		c.busySec += a.computeSec
		c.stallSec += a.stallSec
		c.idleSec += a.idleSec
	}
	m.now = e.now
	m.demandEWMA = e.demandEWMA
	m.uncoreRatio = e.uncore
	m.totalInstr += e.totInstr
	m.totalMissL += e.totMissL
	m.totalMissR += e.totMissR
	m.uncoreGHzSecs += e.uncoreGHzSecs
	m.profBatch++
	m.profQuanta += int64(e.quantum)
	m.mu.Unlock()

	// Counter hardware is only observed at batch boundaries (components and
	// software run between batches), so one deposit per batch is
	// observation-equivalent to the former per-quantum updates — and 40×
	// cheaper at the default Tinv.
	if e.totMissL > 0 || e.totMissR > 0 {
		m.pmu.AddTor(e.totMissL, e.totMissR)
	}
	if e.totInstr > 0 {
		for i := range e.accum {
			e.retired[i] = e.accum[i].instr
		}
		m.pmu.AddRetiredBatch(e.retired)
	}
}

// fireDue pops every component whose deadline has passed and ticks it. The
// machine mutex is not held across Tick: daemons write MSRs (whose handlers
// lock) and steal core time from inside their tick.
func (m *Machine) fireDue() {
	m.mu.Lock()
	now := m.now
	m.dueBuf = m.events.popDue(now, m.dueBuf[:0])
	due := m.dueBuf
	m.mu.Unlock()
	for _, c := range due {
		if tax := c.Tick(now); tax > 0 {
			m.StealCoreTime(c.Core, tax)
		}
	}
}
