package bench

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runDefault executes a spec under the Default environment (performance
// governor, firmware Auto uncore) and returns elapsed seconds, measured
// whole-run TIPI and total energy.
func runDefault(t *testing.T, spec Spec, scale float64, seed int64) (sec, tipi, joules float64) {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig())
	m.SetFirmware(governor.DefaultAutoUFS())
	src, err := spec.Build(Params{Cores: m.Config().Cores, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSource(src)
	sec = m.Run(300)
	if !m.Finished() {
		t.Fatalf("%s did not finish in 300 simulated seconds", spec.Name)
	}
	local, remote := m.TotalMisses()
	return sec, (local + remote) / m.TotalInstructions(), m.TotalEnergy()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"UTS", "SOR-irt", "SOR-rt", "SOR-ws", "Heat-irt", "Heat-rt", "Heat-ws", "MiniFE", "HPCCG", "AMG"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d benchmarks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s (Table 1 order)", i, got[i], want[i])
		}
	}
}

func TestHClibPortsMatchSection52(t *testing.T) {
	want := map[string]bool{
		"SOR-irt": true, "SOR-rt": true, "SOR-ws": true,
		"Heat-irt": true, "Heat-rt": true, "Heat-ws": true,
	}
	got := HClibNames()
	if len(got) != len(want) {
		t.Fatalf("HClib ports = %v, want the six SOR/Heat variants", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("%s should not have an HClib port", n)
		}
	}
	if _, err := mustGet(t, "UTS").Build(Params{Cores: 4, Scale: 0.01, Model: HClib}); err == nil {
		t.Error("UTS must refuse the HClib model (§5.2)")
	}
	if _, err := mustGet(t, "MiniFE").Build(Params{Cores: 4, Scale: 0.01, Model: HClib}); err == nil {
		t.Error("MiniFE must refuse the HClib model (§5.2)")
	}
}

func mustGet(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return s
}

func TestBuildParameterValidation(t *testing.T) {
	s := mustGet(t, "UTS")
	if _, err := s.Build(Params{Cores: 0, Scale: 1}); err == nil {
		t.Error("zero cores must be rejected")
	}
	if _, err := s.Build(Params{Cores: 4, Scale: 0}); err == nil {
		t.Error("zero scale must be rejected")
	}
	if _, err := s.Build(Params{Cores: 4, Scale: 1, Model: Model("tbb")}); err == nil {
		t.Error("unknown model must be rejected")
	}
}

// TestTIPIInPaperRange is the Table 1 calibration gate: each benchmark's
// whole-run TIPI must land inside (or within one slab of) the paper's
// reported range.
func TestTIPIInPaperRange(t *testing.T) {
	const slack = 0.004 // one slab of tolerance at the edges
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			_, tipi, _ := runDefault(t, spec, 0.04, 1)
			if tipi < spec.TIPILow-slack || tipi > spec.TIPIHigh+slack {
				t.Errorf("measured TIPI %.4f outside Table 1 range [%.3f, %.3f]",
					tipi, spec.TIPILow, spec.TIPIHigh)
			}
		})
	}
}

// TestRuntimeTracksPaper checks the Default wall time lands within a factor
// of two of Table 1's (scaled) time — the absolute calibration is loose by
// design; shape matters.
func TestRuntimeTracksPaper(t *testing.T) {
	const scale = 0.04
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			sec, _, joules := runDefault(t, spec, scale, 2)
			want := spec.PaperSeconds * scale
			if sec < want/2 || sec > want*2 {
				t.Errorf("Default time %.2f s, want within 2x of %.2f s", sec, want)
			}
			if watts := joules / sec; watts < 30 || watts > 110 {
				t.Errorf("package power %.1f W implausible", watts)
			}
		})
	}
}

// TestModelsProduceSameWork verifies §5.2's premise: an HClib build executes
// the same DAG (same instruction budget within scheduler overhead) as the
// OpenMP build.
func TestModelsProduceSameWork(t *testing.T) {
	spec := mustGet(t, "Heat-irt")
	run := func(model Model) float64 {
		m := machine.MustNew(machine.DefaultConfig())
		src, err := spec.Build(Params{Cores: 20, Scale: 0.02, Seed: 3, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		m.SetSource(src)
		m.Run(120)
		return m.TotalInstructions()
	}
	omp, hclib := run(OpenMP), run(HClib)
	if diff := (omp - hclib) / omp; diff < -0.02 || diff > 0.02 {
		t.Errorf("instruction totals differ %.1f%% between models; DAGs should match", diff*100)
	}
}

// TestSeedsVaryExecution ensures repeated runs with different seeds are not
// identical (the paper reports confidence intervals over ten runs).
func TestSeedsVaryExecution(t *testing.T) {
	spec := mustGet(t, "UTS")
	t1, _, _ := runDefault(t, spec, 0.01, 1)
	t2, _, _ := runDefault(t, spec, 0.01, 99)
	if t1 == t2 {
		t.Error("different seeds produced byte-identical runs; imbalance model inert")
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	spec := mustGet(t, "SOR-irt")
	t1, tipi1, j1 := runDefault(t, spec, 0.01, 7)
	t2, tipi2, j2 := runDefault(t, spec, 0.01, 7)
	if t1 != t2 || tipi1 != tipi2 || j1 != j2 {
		t.Error("same seed must reproduce the run exactly (serial driver)")
	}
}

// pairs returns a function that makes n NextSegment+Complete pairs on src,
// polling its cores in turn the way the machine does.
func pairs(src workload.Source, cores, n int) func() {
	c := 0
	return func() {
		for range n {
			if _, ok := src.NextSegment(c, 0); ok {
				src.Complete(c, 0)
			}
			c = (c + 1) % cores
		}
	}
}

// TestUTSAllocatesNothingPerTask: once the deques and the runtime's child
// buffer have grown, dispatching and expanding UTS nodes allocates nothing.
func TestUTSAllocatesNothingPerTask(t *testing.T) {
	const cores = 4
	spec, _ := Get("UTS")
	src, err := spec.Build(Params{Cores: cores, Scale: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	drive := pairs(src, cores, 1000)
	for range 10 {
		drive()
	}
	// runs == 1 counts exactly, where a larger runs would truncate.
	if n := testing.AllocsPerRun(1, drive); n != 0 {
		t.Errorf("1000 UTS task pairs allocated %v times, want 0", n)
	}
	if src.Done() {
		t.Fatal("the tree ran out inside the measured window")
	}
}

// TestStencilRoundAllocatesNothingPerTask: inside an -irt finish scope,
// whose tree interprets each task as its own tile range, dispatching and
// expanding tasks allocates nothing.
func TestStencilRoundAllocatesNothingPerTask(t *testing.T) {
	const cores = 4
	sp := heatParams()
	tree := &stencilTree{style: IrregularTasks, leaf: sp.seg, spawn: workload.Segment{Instructions: 2000, MissPerInstr: 0.002, IPC: 1.5}}
	tree.leaf.Instructions = 1e5
	roots := []sched.Task{{Lo: 0, Hi: stencilTiles}}
	rounds := 0
	gen := func(int) ([]sched.Task, sched.Tree, bool) {
		rounds++
		return roots, tree, true
	}
	ws := sched.NewWorkStealing(cores, gen, 7)
	step, drive := pairs(ws, cores, 1), pairs(ws, cores, 1000)
	// Three whole rounds grow the deques; round 4 has just been released.
	for rounds < 4 {
		step()
	}
	if n := testing.AllocsPerRun(1, drive); n != 0 {
		t.Errorf("1000 Heat-irt task pairs allocated %v times, want 0", n)
	}
	if rounds != 4 {
		t.Fatalf("the measured window crossed into round %d", rounds)
	}
}

// BenchmarkUTSUnfold unfolds one whole UTS tree (20 cores, scale 0.03,
// about 153,000 tasks) through NextSegment and Complete, with no machine:
// what it reports is the work-stealing runtime's own cost per tree,
// deque growth included.
func BenchmarkUTSUnfold(b *testing.B) {
	const cores = 20
	spec, _ := Get("UTS")
	b.ReportAllocs()
	for b.Loop() {
		src, err := spec.Build(Params{Cores: cores, Scale: 0.03, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; !src.Done(); c = (c + 1) % cores {
			if _, ok := src.NextSegment(c, 0); ok {
				src.Complete(c, 0)
			}
		}
	}
}
