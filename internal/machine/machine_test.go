package machine

import (
	"math"
	"sync"
	"testing"

	"repro/internal/freq"
	"repro/internal/msr"
	"repro/internal/workload"
)

// poolSource hands out identical segments until a budget is exhausted.
type poolSource struct {
	mu      sync.Mutex
	seg     workload.Segment
	remain  int
	started int
}

func newPool(seg workload.Segment, n int) *poolSource {
	return &poolSource{seg: seg, remain: n}
}

func (p *poolSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remain == 0 {
		return workload.Segment{}, false
	}
	p.remain--
	p.started++
	return p.seg, true
}

func (p *poolSource) Complete(core int, now float64) {}

func (p *poolSource) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remain == 0
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Error("zero cores must be rejected")
	}
	bad = DefaultConfig()
	bad.QuantumSec = -1
	if _, err := New(bad); err == nil {
		t.Error("negative quantum must be rejected")
	}
	bad = DefaultConfig()
	bad.TrafficAlpha = 2
	if _, err := New(bad); err == nil {
		t.Error("alpha > 1 must be rejected")
	}
}

func TestResetFrequencies(t *testing.T) {
	m := MustNew(smallConfig())
	if m.CoreRatio(0) != m.Config().CoreGrid.Max {
		t.Errorf("cores must boot at max ratio, got %v", m.CoreRatio(0))
	}
	if m.UncoreRatio() != m.Config().UncoreGrid.Max {
		t.Errorf("uncore must boot at max ratio, got %v", m.UncoreRatio())
	}
}

func TestPerfCtlActuatesDVFS(t *testing.T) {
	m := MustNew(smallConfig())
	if err := m.Device().Write(msr.IA32PerfCtl, 2, msr.PerfCtlRaw(15)); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreRatio(2); got != 15 {
		t.Errorf("core 2 ratio = %v, want 1.5GHz", got)
	}
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Max {
		t.Errorf("core 0 must be unaffected, got %v", got)
	}
	// Status register reflects the operating point.
	v, err := m.Device().Read(msr.IA32PerfStatus, 2)
	if err != nil || msr.PerfCtlRatio(v) != 15 {
		t.Errorf("perf status = %d,%v want ratio 15", msr.PerfCtlRatio(v), err)
	}
}

func TestPerfCtlClampsToGrid(t *testing.T) {
	m := MustNew(smallConfig())
	m.Device().Write(msr.IA32PerfCtl, 0, msr.PerfCtlRaw(50))
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Max {
		t.Errorf("over-grid request should clamp to max, got %v", got)
	}
	m.Device().Write(msr.IA32PerfCtl, 0, msr.PerfCtlRaw(1))
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Min {
		t.Errorf("under-grid request should clamp to min, got %v", got)
	}
}

func TestUncoreLimitPinsUFS(t *testing.T) {
	m := MustNew(smallConfig())
	if err := m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(22, 22)); err != nil {
		t.Fatal(err)
	}
	if got := m.UncoreRatio(); got != 22 {
		t.Errorf("uncore = %v, want 2.2GHz", got)
	}
	// Rejects inverted ranges.
	if err := m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(25, 20)); err == nil {
		t.Error("min > max must be rejected")
	}
}

func TestIdleMachineBurnsIdlePower(t *testing.T) {
	m := MustNew(smallConfig())
	for i := 0; i < 200; i++ { // 100 ms
		m.Step()
	}
	e := m.TotalEnergy()
	if e <= 0 {
		t.Fatal("idle machine must still leak energy")
	}
	p := e / m.Now()
	if p > 60 {
		t.Errorf("idle power = %.1f W, implausibly high", p)
	}
	if m.TotalInstructions() != 0 {
		t.Error("idle machine retired instructions")
	}
}

func TestWorkConservation(t *testing.T) {
	// Every instruction handed out is eventually retired, exactly once.
	const perSeg = 1e6
	const nSeg = 64
	src := newPool(workload.Segment{Instructions: perSeg, MissPerInstr: 0.002, IPC: 2}, nSeg)
	m := MustNew(smallConfig())
	m.SetSource(src)
	m.Run(10)
	if !src.Done() {
		t.Fatal("source not drained in 10 simulated seconds")
	}
	got := m.TotalInstructions()
	want := float64(nSeg) * perSeg
	if math.Abs(got-want) > 1 {
		t.Errorf("retired %.0f instructions, want %.0f", got, want)
	}
	if got := m.PMU().RetiredAll(); math.Abs(float64(got)-want) > float64(nSeg) {
		t.Errorf("PMU retired %d, want ≈ %.0f", got, want)
	}
}

func TestTorSplitLocalRemote(t *testing.T) {
	src := newPool(workload.Segment{Instructions: 1e6, MissPerInstr: 0.05, IPC: 2, RemoteFrac: 0.25}, 8)
	m := MustNew(smallConfig())
	m.SetSource(src)
	m.Run(10)
	local, remote := m.TotalMisses()
	totalMiss := 8e6 * 0.05
	if math.Abs(local+remote-totalMiss) > 1 {
		t.Errorf("total misses = %.0f, want %.0f", local+remote, totalMiss)
	}
	if math.Abs(remote/(local+remote)-0.25) > 1e-6 {
		t.Errorf("remote fraction = %.3f, want 0.25", remote/(local+remote))
	}
}

func TestHigherCoreFrequencyIsFasterForCompute(t *testing.T) {
	run := func(ratio freq.Ratio) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, IPC: 2}, 32)
		m := MustNew(smallConfig())
		for c := 0; c < m.Config().Cores; c++ {
			m.Device().Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(ratio)))
		}
		m.SetSource(src)
		return m.Run(30)
	}
	fast, slow := run(23), run(12)
	if fast >= slow {
		t.Errorf("2.3GHz run (%.3fs) not faster than 1.2GHz (%.3fs)", fast, slow)
	}
	// Compute-bound scaling should be close to the frequency ratio.
	if r := slow / fast; r < 1.7 || r > 2.1 {
		t.Errorf("speedup = %.2f, want ≈ 23/12 = 1.92", r)
	}
}

func TestMemoryBoundInsensitiveToCoreFrequency(t *testing.T) {
	run := func(ratio freq.Ratio) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, MissPerInstr: 0.15, IPC: 2}, 32)
		m := MustNew(smallConfig())
		for c := 0; c < m.Config().Cores; c++ {
			m.Device().Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(ratio)))
		}
		m.SetSource(src)
		return m.Run(60)
	}
	fast, slow := run(23), run(12)
	if r := slow / fast; r > 1.45 {
		t.Errorf("memory-bound CF speedup = %.2f, should be far below 1.92", r)
	}
}

func TestUncoreFrequencyHelpsMemoryBound(t *testing.T) {
	run := func(uf freq.Ratio) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, MissPerInstr: 0.15, IPC: 2}, 32)
		m := MustNew(smallConfig())
		m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(uint8(uf), uint8(uf)))
		m.SetSource(src)
		return m.Run(60)
	}
	if fast, slow := run(30), run(12); fast >= slow {
		t.Errorf("high UF (%.3fs) not faster than low UF (%.3fs) for memory-bound", fast, slow)
	}
}

func TestComponentTicksAtPeriod(t *testing.T) {
	m := MustNew(smallConfig())
	var fires []float64
	m.Schedule(&Component{
		Period: 20e-3,
		Tick:   func(now float64) float64 { fires = append(fires, now); return 0 },
	}, 20e-3)
	for m.Now() < 0.1001 {
		m.Step()
	}
	if len(fires) != 5 {
		t.Fatalf("component fired %d times in 100 ms at 20 ms period, want 5", len(fires))
	}
	for i, f := range fires {
		want := 0.02 * float64(i+1)
		if math.Abs(f-want) > 1e-9 {
			t.Errorf("fire %d at %g, want %g", i, f, want)
		}
	}
}

func TestDaemonTaxSlowsPinnedCore(t *testing.T) {
	run := func(tax float64) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, IPC: 2}, 32)
		m := MustNew(smallConfig())
		m.Schedule(&Component{
			Period: 1e-3,
			Core:   0,
			Tick:   func(float64) float64 { return tax },
		}, 1e-3)
		m.SetSource(src)
		return m.Run(60)
	}
	// A daemon eating 20% of core 0 must slow the run measurably but far
	// less than 20% (work moves to other cores only via the source pool).
	none, taxed := run(0), run(0.2e-3)
	if taxed <= none {
		t.Errorf("taxed run (%.4fs) not slower than untaxed (%.4fs)", taxed, none)
	}
	if taxed > none*1.2 {
		t.Errorf("tax overhead %.1f%% too large", 100*(taxed/none-1))
	}
}

func TestRaplVisibleThroughMSR(t *testing.T) {
	src := newPool(workload.Segment{Instructions: 1e7, IPC: 2}, 16)
	m := MustNew(smallConfig())
	m.SetSource(src)
	m.Run(1)
	v, err := m.Device().Read(msr.PkgEnergyStatus, 0)
	if err != nil {
		t.Fatal(err)
	}
	unitRaw, _ := m.Device().Read(msr.RaplPowerUnit, 0)
	joules := float64(v) * msr.EnergyUnitJoules(unitRaw)
	if joules <= 0 {
		t.Fatal("RAPL MSR shows no energy")
	}
	if math.Abs(joules-m.TotalEnergy()) > 0.01*m.TotalEnergy() {
		t.Errorf("RAPL MSR %.3f J vs ground truth %.3f J", joules, m.TotalEnergy())
	}
}

func TestClockModulationThrottlesCompute(t *testing.T) {
	run := func(level uint8) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, IPC: 2}, 32)
		m := MustNew(smallConfig())
		for c := 0; c < m.Config().Cores; c++ {
			if err := m.Device().Write(msr.IA32ClockModulation, c, msr.ClockModRaw(level)); err != nil {
				t.Fatal(err)
			}
		}
		m.SetSource(src)
		return m.Run(60)
	}
	full, half := run(0), run(4) // 100% vs 50% duty
	if r := half / full; r < 1.8 || r > 2.2 {
		t.Errorf("50%% duty slowdown = %.2fx, want ≈ 2x for compute-bound", r)
	}
}

func TestClockModulationKeepsLeakage(t *testing.T) {
	// DDCM's defining inefficiency: halving duty halves dynamic power but
	// leaves voltage and leakage untouched, so energy per instruction for
	// a compute-bound run must rise.
	run := func(level uint8) float64 {
		src := newPool(workload.Segment{Instructions: 5e6, IPC: 2}, 32)
		m := MustNew(smallConfig())
		for c := 0; c < m.Config().Cores; c++ {
			m.Device().Write(msr.IA32ClockModulation, c, msr.ClockModRaw(level))
		}
		m.SetSource(src)
		m.Run(60)
		return m.TotalEnergy() / m.TotalInstructions()
	}
	if full, half := run(0), run(4); half <= full {
		t.Errorf("DDCM energy/instruction %.3g should exceed unmodulated %.3g", half, full)
	}
}

// TestFrequencyWritesReachCarriedSegments: DVFS and DDCM writes land
// between batches while every core is inside one long segment. The engine
// keeps clock-dependent terms across batches, so a write must invalidate
// them: the next quantum retires instructions at the new clock and duty.
func TestFrequencyWritesReachCarriedSegments(t *testing.T) {
	m := MustNew(smallConfig())
	cores := m.Config().Cores
	m.SetSource(newPool(workload.Segment{Instructions: 1e15, IPC: 2}, cores))
	set := func(ratio, dutyLevel uint8) {
		for c := 0; c < cores; c++ {
			if err := m.Device().Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(ratio)); err != nil {
				t.Fatal(err)
			}
			if err := m.Device().Write(msr.IA32ClockModulation, c, msr.ClockModRaw(dutyLevel)); err != nil {
				t.Fatal(err)
			}
		}
	}
	set(12, 0)
	m.Step() // every core picks up its segment
	for _, tc := range []struct {
		ratio, dutyLevel uint8
		duty             float64
	}{{12, 0, 1}, {23, 0, 1}, {23, 4, 0.5}, {12, 0, 1}} {
		set(tc.ratio, tc.dutyLevel)
		before := m.TotalInstructions()
		m.Step()
		got := m.TotalInstructions() - before
		want := float64(cores) * m.Config().QuantumSec * 2 * freq.Ratio(tc.ratio).Hz() * tc.duty
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("ratio %d duty %g: retired %g instructions in a quantum, want %g", tc.ratio, tc.duty, got, want)
		}
	}
}

type pinFirmware struct{ target freq.Ratio }

func (p pinFirmware) Target(_ float64, min, max freq.Ratio) freq.Ratio { return p.target }

func TestFirmwareControlsUncoreOnlyWithinRange(t *testing.T) {
	m := MustNew(smallConfig())
	m.SetFirmware(pinFirmware{target: 25})
	m.Step()
	if got := m.UncoreRatio(); got != 25 {
		t.Errorf("firmware target ignored: %v", got)
	}
	// Pinning 0x620 (min == max) locks the firmware out.
	m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(13, 13))
	m.Step()
	if got := m.UncoreRatio(); got != 13 {
		t.Errorf("pinned uncore moved by firmware: %v", got)
	}
}
