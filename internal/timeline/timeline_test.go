package timeline

import (
	"bytes"
	"testing"
)

// fill records n samples and n events with deterministic content.
func fill(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		r.AddSample(Sample{T: float64(i), Boundary: i, Cores: []int{20, 20}, Uncore: 15, SumCoreGHz: 4, Instr: float64(i) * 1e9, EnergyJ: float64(i) * 2})
		r.AddEvent(Event{T: float64(i), Kind: KindDVFS, From: 12, To: 23})
	}
}

func TestRingTruncation(t *testing.T) {
	r := NewWithCaps("x", 4, 3)
	fill(r, 10)
	ex := r.Export()
	if len(ex.Lanes) != 1 {
		t.Fatalf("lanes = %d, want 1", len(ex.Lanes))
	}
	ln := ex.Lanes[0]
	if len(ln.Samples) != 4 || ln.DroppedSamples != 6 {
		t.Errorf("samples = %d dropped = %d, want 4 / 6", len(ln.Samples), ln.DroppedSamples)
	}
	if len(ln.Events) != 3 || ln.DroppedEvents != 7 {
		t.Errorf("events = %d dropped = %d, want 3 / 7", len(ln.Events), ln.DroppedEvents)
	}
	// Oldest-first export: the ring holds the newest entries.
	if ln.Samples[0].T != 6 || ln.Samples[3].T != 9 {
		t.Errorf("sample window = [%g, %g], want [6, 9]", ln.Samples[0].T, ln.Samples[3].T)
	}
	if ln.Events[0].T != 7 || ln.Events[2].T != 9 {
		t.Errorf("event window = [%g, %g], want [7, 9]", ln.Events[0].T, ln.Events[2].T)
	}
	// Convergence counters survive truncation.
	c := r.Convergence()
	if c.Runs != 1 || c.TimeToStableSec != 9 {
		t.Errorf("convergence = %+v, want Runs 1 TimeToStableSec 9", c)
	}
}

func TestJSONDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New("abc")
		// Create lanes out of order to prove exports sort by (order, name).
		fill(r.Lane("rep-1", 1), 3)
		fill(r.Lane("rep-0", 0), 3)
		return r
	}
	a, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("equal recorders rendered different bytes:\n%s\nvs\n%s", a, b)
	}
	ex := build().Export()
	if len(ex.Lanes) != 2 || ex.Lanes[0].Lane != "rep-0" || ex.Lanes[1].Lane != "rep-1" {
		t.Fatalf("lane order = %+v, want rep-0 then rep-1", ex.Lanes)
	}
}

func TestIPCDerivation(t *testing.T) {
	r := New("")
	r.AddSample(Sample{T: 1, Instr: 1e9, SumCoreGHz: 2})
	r.AddSample(Sample{T: 2, Instr: 5e9, SumCoreGHz: 2})
	ex := r.Export()
	// (5e9-1e9) instr over 1 s at 2 GHz aggregate = 2 IPC.
	if got := ex.Lanes[0].Samples[1].IPC; got != 2 {
		t.Errorf("IPC = %g, want 2", got)
	}
	if got := ex.Lanes[0].Samples[0].IPC; got != 0 {
		t.Errorf("first sample IPC = %g, want 0 (no predecessor)", got)
	}
}

func TestConvergence(t *testing.T) {
	r := New("")
	r.AddSample(Sample{T: 0, EnergyJ: 0})
	r.AddEvent(Event{T: 1, Kind: KindExplore})
	r.AddEvent(Event{T: 2, Kind: KindDVFS})
	r.AddSample(Sample{T: 3, EnergyJ: 30})
	r.AddSample(Sample{T: 4, EnergyJ: 40})
	c := r.Convergence()
	if c.Runs != 1 || c.TimeToStableSec != 2 || c.ExplorationQuanta != 1 {
		t.Errorf("convergence = %+v, want Runs 1 stable 2 quanta 1", c)
	}
	// Energy at the first sample at/after the last unstable decision.
	if c.ExplorationEnergyJ != 30 {
		t.Errorf("ExplorationEnergyJ = %g, want 30", c.ExplorationEnergyJ)
	}

	// No sample after the last decision: the final sample bounds it.
	r2 := New("")
	r2.AddSample(Sample{T: 0, EnergyJ: 7})
	r2.AddEvent(Event{T: 5, Kind: KindUFS})
	if c := r2.Convergence(); c.ExplorationEnergyJ != 7 {
		t.Errorf("fallback ExplorationEnergyJ = %g, want 7", c.ExplorationEnergyJ)
	}
}

func TestConvergenceAdd(t *testing.T) {
	var c Convergence
	c.Add(Convergence{Runs: 1, TimeToStableSec: 2, ExplorationQuanta: 3, ExplorationEnergyJ: 10})
	c.Add(Convergence{Runs: 3, TimeToStableSec: 6, ExplorationQuanta: 1, ExplorationEnergyJ: 2})
	if c.Runs != 4 || c.ExplorationQuanta != 4 || c.ExplorationEnergyJ != 12 {
		t.Errorf("sums wrong: %+v", c)
	}
	if want := (2.0*1 + 6.0*3) / 4; c.TimeToStableSec != want {
		t.Errorf("TimeToStableSec = %g, want %g (run-weighted mean)", c.TimeToStableSec, want)
	}
	c.Add(Convergence{}) // zero-run summaries are no-ops
	if c.Runs != 4 {
		t.Errorf("zero-run Add changed Runs: %d", c.Runs)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.AddSample(Sample{T: 1})
	r.AddEvent(Event{T: 1, Kind: KindDVFS})
	if ln := r.Lane("a", 0); ln != nil {
		t.Error("nil recorder Lane should be nil")
	}
	if c := r.Convergence(); c.Runs != 0 {
		t.Errorf("nil convergence = %+v", c)
	}
	ex := r.Export()
	if len(ex.Lanes) != 0 {
		t.Errorf("nil export lanes = %d", len(ex.Lanes))
	}
}
