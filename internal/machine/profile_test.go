package machine

import (
	"testing"

	"repro/internal/workload"
)

// profiledRun executes a short workload with Profile on or off and returns
// the finished machine.
func profiledRun(t *testing.T, profile bool) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Profile = profile
	m := MustNew(cfg)
	m.SetSource(newLaneSource(cfg.Cores, 10, workload.Segment{Instructions: 2e6, MissPerInstr: 0.02, IPC: 2}))
	m.Run(30)
	if !m.Finished() {
		t.Fatal("workload did not finish")
	}
	return m
}

// TestProfileAccounting: with Profile on, the machine reports batch
// counts, quanta and dispatch wall time, and the quanta add up to the
// simulated clock.
func TestProfileAccounting(t *testing.T) {
	m := profiledRun(t, true)
	p := m.Profile()
	if !p.Enabled {
		t.Fatal("profile not enabled")
	}
	if p.Batches <= 0 || p.RunWallNs <= 0 {
		t.Errorf("empty accounting %+v", p)
	}
	if want := int64(m.Now()/m.Config().QuantumSec + 0.5); p.Quanta != want {
		t.Errorf("%d quanta for %.4f s simulated, want %d", p.Quanta, m.Now(), want)
	}
}

// TestProfileDoesNotPerturbResults is the determinism-boundary contract at
// the engine layer: profiling must leave simulated state bit-identical.
func TestProfileDoesNotPerturbResults(t *testing.T) {
	ref := profiledRun(t, false)
	if p := ref.Profile(); p != (Profile{}) {
		t.Fatalf("profile off must report a zero Profile, got %+v", p)
	}
	m := profiledRun(t, true)
	if m.TotalInstructions() != ref.TotalInstructions() || m.TotalEnergy() != ref.TotalEnergy() {
		t.Errorf("profiled run diverged: instr %v vs %v, joules %v vs %v",
			m.TotalInstructions(), ref.TotalInstructions(), m.TotalEnergy(), ref.TotalEnergy())
	}
}
