package machine

import (
	"testing"

	"repro/internal/workload"
)

// profiledRun executes a short workload and returns the finished machine.
func profiledRun(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	m := MustNew(cfg)
	m.SetSource(newLaneSource(cfg.Cores, 10, workload.Segment{Instructions: 2e6, MissPerInstr: 0.02, IPC: 2}))
	m.Run(30)
	if !m.Finished() {
		t.Fatal("workload did not finish")
	}
	return m
}

// TestProfileAccounting: the machine reports batch and quantum counts,
// and the quanta add up to the simulated clock.
func TestProfileAccounting(t *testing.T) {
	m := profiledRun(t)
	p := m.Profile()
	if p.Batches <= 0 || p.Batches > p.Quanta {
		t.Errorf("accounting %+v: want 0 < batches ≤ quanta", p)
	}
	if want := int64(m.Now()/m.Config().QuantumSec + 0.5); p.Quanta != want {
		t.Errorf("%d quanta for %.4f s simulated, want %d", p.Quanta, m.Now(), want)
	}
}

// TestProfileCountsDeterministic: the counts are simulated work, not
// host measurements, so two identical runs count the same batches and
// quanta and finish in the same state.
func TestProfileCountsDeterministic(t *testing.T) {
	a, b := profiledRun(t), profiledRun(t)
	if pa, pb := a.Profile(), b.Profile(); pa != pb {
		t.Errorf("identical runs counted %+v and %+v", pa, pb)
	}
	if a.TotalInstructions() != b.TotalInstructions() || a.TotalEnergy() != b.TotalEnergy() {
		t.Errorf("identical runs diverged: instr %v vs %v, joules %v vs %v",
			a.TotalInstructions(), b.TotalInstructions(), a.TotalEnergy(), b.TotalEnergy())
	}
}
