package machine

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// laneSource gives every core its own fixed segment list — scheduling is a
// pure function of the core index, so results cannot depend on the order in
// which cores are stepped.
type laneSource struct {
	lanes [][]workload.Segment
	pos   []int
}

func newLaneSource(cores, perCore int, seg workload.Segment) *laneSource {
	s := &laneSource{lanes: make([][]workload.Segment, cores), pos: make([]int, cores)}
	for c := range s.lanes {
		lane := make([]workload.Segment, perCore)
		for i := range lane {
			// Vary the mix per core and per segment so every core's power
			// and miss profile differs — a stricter determinism probe than
			// identical segments.
			v := seg
			v.Instructions *= 1 + 0.1*float64(c) + 0.01*float64(i)
			v.MissPerInstr *= 1 + 0.05*float64((c+i)%3)
			lane[i] = v
		}
		s.lanes[c] = lane
	}
	return s
}

func (s *laneSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	if s.pos[core] >= len(s.lanes[core]) {
		return workload.Segment{}, false
	}
	seg := s.lanes[core][s.pos[core]]
	s.pos[core]++
	return seg, true
}

func (s *laneSource) Complete(core int, now float64) {}

func (s *laneSource) Done() bool {
	for c := range s.pos {
		if s.pos[c] < len(s.lanes[c]) {
			return false
		}
	}
	return true
}

// engineRun executes a fixed workload, batched by Run or a quantum at a
// time by Step, and returns the exact totals.
func engineRun(t *testing.T, step bool) (instr, joules, now float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	m := MustNew(cfg)
	// A daemon-like component taxing core 0 plus the Auto-style firmware
	// exercise the event queue and the per-quantum governor during the run.
	m.SetFirmware(pinFirmware{target: 24})
	m.Schedule(&Component{Period: 10e-3, Core: 0, Tick: func(float64) float64 { return 20e-6 }}, 10e-3)
	m.SetSource(newLaneSource(cfg.Cores, 40, workload.Segment{Instructions: 3e6, MissPerInstr: 0.02, IPC: 2}))
	if step {
		for !m.Finished() && m.Now() < 120 {
			m.Step()
		}
	} else {
		m.Run(120)
	}
	if !m.Finished() {
		t.Fatal("workload did not finish")
	}
	return m.TotalInstructions(), m.TotalEnergy(), m.Now()
}

// TestEngineDeterministicAcrossBatching: the run-to-next-event batching
// must not change physics — every quantum's arithmetic (and hence energy
// and the clock) is identical to stepping one quantum at a time. Lifetime
// instruction totals are accumulated per batch, so their float additions
// group differently; they may differ by an ulp, no more.
func TestEngineDeterministicAcrossBatching(t *testing.T) {
	refInstr, refJoules, refNow := engineRun(t, true)
	if refInstr <= 0 || refJoules <= 0 {
		t.Fatalf("degenerate reference run: %g instr, %g J", refInstr, refJoules)
	}
	instr, joules, now := engineRun(t, false)
	if joules != refJoules || now != refNow {
		t.Errorf("batched run diverged: joules %v vs %v, now %v vs %v", joules, refJoules, now, refNow)
	}
	if math.Abs(instr-refInstr) > 1e-9*refInstr {
		t.Errorf("batched instruction total %v vs %v beyond summation-order slack", instr, refInstr)
	}
}

// TestStepMatchesRun: driving the machine by hand with Step must agree with
// the batched Run driver.
func TestStepMatchesRun(t *testing.T) {
	build := func() *Machine {
		cfg := DefaultConfig()
		cfg.Cores = 4
		m := MustNew(cfg)
		m.Schedule(&Component{Period: 5e-3, Core: 0, Tick: func(float64) float64 { return 10e-6 }}, 5e-3)
		m.SetSource(newLaneSource(cfg.Cores, 10, workload.Segment{Instructions: 2e6, MissPerInstr: 0.03, IPC: 2}))
		return m
	}
	a := build()
	for !a.Finished() {
		a.Step()
	}
	b := build()
	b.Run(120)
	// Step is a batch of one quantum, so instruction totals group their
	// additions differently from Run's batches — ulp slack only.
	if ai, bi := a.TotalInstructions(), b.TotalInstructions(); math.Abs(ai-bi) > 1e-9*ai {
		t.Errorf("instructions: step-driven %v vs run-driven %v", ai, bi)
	}
	if aj, bj := a.TotalEnergy(), b.TotalEnergy(); aj != bj {
		t.Errorf("energy: step-driven %v vs run-driven %v", aj, bj)
	}
	if an, bn := a.Now(), b.Now(); an != bn {
		t.Errorf("clock: step-driven %v vs run-driven %v", an, bn)
	}
}

// stealingSource hands out segments from a single shared pool, so every
// core reaches the same counters from NextSegment/Complete. It takes no
// lock: the machine never calls a source concurrently.
type stealingSource struct {
	remain   int
	inFlight int
	seg      workload.Segment
}

func (s *stealingSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	if s.remain == 0 {
		return workload.Segment{}, false
	}
	s.remain--
	s.inFlight++
	return s.seg, true
}

func (s *stealingSource) Complete(core int, now float64) { s.inFlight-- }

func (s *stealingSource) Done() bool { return s.remain == 0 && s.inFlight == 0 }

// TestEngineParallelSharedSource runs eight cores against one shared
// source and checks work conservation: every segment the pool hands out is
// retired exactly once.
func TestEngineParallelSharedSource(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	m := MustNew(cfg)
	const nSeg, perSeg = 96, 1e6
	src := &stealingSource{remain: nSeg, seg: workload.Segment{Instructions: perSeg, MissPerInstr: 0.01, IPC: 2}}
	m.SetSource(src)
	m.Schedule(&Component{Period: 20e-3, Tick: func(float64) float64 { return 0 }}, 20e-3)
	m.Run(60)
	if !m.Finished() {
		t.Fatal("shared-pool workload did not finish")
	}
	if got, want := m.TotalInstructions(), float64(nSeg)*perSeg; math.Abs(got-want) > 1 {
		t.Errorf("retired %.0f instructions, want %.0f", got, want)
	}
}

// TestUnscheduleStopsComponent: an unscheduled component never fires again
// and its deadline no longer bounds the batch size.
func TestUnscheduleStopsComponent(t *testing.T) {
	m := MustNew(smallConfig())
	var fires int
	c := &Component{Period: 10e-3, Tick: func(float64) float64 { fires++; return 0 }}
	m.Schedule(c, 10e-3)
	for m.Now() < 0.0501 {
		m.Step()
	}
	if fires != 5 {
		t.Fatalf("component fired %d times in 50 ms, want 5", fires)
	}
	if !m.Unschedule(c) {
		t.Fatal("Unschedule reported the component missing")
	}
	if m.Unschedule(c) {
		t.Error("second Unschedule should report false")
	}
	for m.Now() < 0.2 {
		m.Step()
	}
	if fires != 5 {
		t.Errorf("unscheduled component fired %d more times", fires-5)
	}
}

// TestUnscheduleInterleavedComponents: removing one of several components
// leaves the others firing on schedule (heap removal correctness).
func TestUnscheduleInterleavedComponents(t *testing.T) {
	m := MustNew(smallConfig())
	counts := make([]int, 3)
	comps := make([]*Component, 3)
	for i := range comps {
		i := i
		comps[i] = &Component{Period: float64(i+1) * 5e-3, Tick: func(float64) float64 { counts[i]++; return 0 }}
		m.Schedule(comps[i], comps[i].Period)
	}
	for m.Now() < 0.0301 {
		m.Step()
	}
	if !m.Unschedule(comps[0]) {
		t.Fatal("failed to unschedule")
	}
	before := counts[0]
	for m.Now() < 0.1201 {
		m.Step()
	}
	if counts[0] != before {
		t.Errorf("removed component kept firing (%d extra)", counts[0]-before)
	}
	// 10 ms component: fires at 10,20,...,120 ms → 12; 15 ms: at 15,...,120 → 8.
	if counts[1] != 12 || counts[2] != 8 {
		t.Errorf("remaining components fired %d/%d times, want 12/8", counts[1], counts[2])
	}
}
