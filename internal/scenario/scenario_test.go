package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRegisterValidation(t *testing.T) {
	if err := Register(Entry{Name: "", Build: nil}); err == nil {
		t.Error("empty entry accepted")
	}
	if err := Register(Entry{Name: "x", Build: nil}); err == nil {
		t.Error("nil builder accepted")
	}
	if err := Register(Entry{Name: "bursty", Build: burstyDef().Build}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	for _, name := range []string{
		"compute-bound", "memory-bound", "bursty", "ramp",
		"numa-remote", "multiphase", "bursty-tasks", "corun-mix",
	} {
		e, ok := Get(name)
		if !ok {
			t.Errorf("built-in %q not registered", name)
			continue
		}
		if e.Kind != KindSynthetic {
			t.Errorf("%q kind = %q, want synthetic", name, e.Kind)
		}
		if e.NominalSeconds <= 0 {
			t.Errorf("%q nominal seconds = %g, want positive", name, e.NominalSeconds)
		}
	}
	if Exists("no-such-scenario") {
		t.Error("Exists returned true for an unknown name")
	}
	if got, want := len(List()), len(Names()); got != want {
		t.Errorf("List has %d entries, Names %d", got, want)
	}
}

func TestParseDefinitionRejectsUnknownFields(t *testing.T) {
	if _, err := ParseDefinition([]byte(`{"name":"x","phasess":[]}`)); err == nil {
		t.Error("typoed field accepted")
	}
	d, err := ParseDefinition([]byte(`{"name":"x","phases":[{"instructions":1e9,"miss_per_instr":0.01,"ipc":1.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "x" || len(d.Phases) != 1 {
		t.Errorf("parsed %+v", d)
	}
}

// TestNormalizedHashStable is the DSL's canonicalization contract: two
// spellings of the same program — defaults omitted vs spelled out — must
// normalize to identical structures and identical canonical bytes, so a
// RunSpec embedding either hashes the same.
func TestNormalizedHashStable(t *testing.T) {
	implicit, err := ParseDefinition([]byte(`{
		"name": "p", "phases": [{"instructions": 1e9, "miss_per_instr": 0.02, "ipc": 1.2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ParseDefinition([]byte(`{
		"name": "p", "decomposition": "work-sharing", "iterations": 1,
		"phases": [{"instructions": 1e9, "miss_per_instr": 0.02, "ipc": 1.2,
		            "exposure": 1, "chunks_per_core": 16, "repeat": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	a, b := implicit.Normalized(), explicit.Normalized()
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if string(ab) != string(bb) {
		t.Errorf("normalized forms differ:\n%s\n%s", ab, bb)
	}
}

func TestNormalizedDoesNotMutateReceiver(t *testing.T) {
	d := Definition{Name: "p", Phases: []PhaseDef{{Instructions: 1, MissPerInstr: 0, IPC: 1}}}
	_ = d.Normalized()
	if d.Phases[0].ChunksPerCore != 0 || d.Phases[0].Exposure != nil {
		t.Error("Normalized mutated the receiver's phase slice")
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Definition {
		return Definition{Name: "v", Phases: []PhaseDef{{Instructions: 1e9, MissPerInstr: 0.01, IPC: 1.5}}}
	}
	cases := []struct {
		name   string
		mutate func(*Definition)
		want   string
	}{
		{"no name", func(d *Definition) { d.Name = "" }, "needs a name"},
		{"bad decomposition", func(d *Definition) { d.Decomposition = "fork-join" }, "decomposition"},
		{"no phases", func(d *Definition) { d.Phases = nil }, "at least one phase"},
		{"zero instructions", func(d *Definition) { d.Phases[0].Instructions = 0 }, "instructions"},
		{"zero ipc", func(d *Definition) { d.Phases[0].IPC = 0 }, "ipc"},
		{"bad remote", func(d *Definition) { d.Phases[0].RemoteFrac = 2 }, "remote_frac"},
		{"bad exposure", func(d *Definition) { d.Phases[0].Exposure = ptr(1.5) }, "exposure"},
		{"bad jitter", func(d *Definition) { d.Phases[0].JitterFrac = 1 }, "jitter_frac"},
	}
	for _, tc := range cases {
		d := base()
		tc.mutate(&d)
		err := d.Normalized().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := base().Normalized().Validate(); err != nil {
		t.Errorf("well-formed definition rejected: %v", err)
	}
}

func TestExplicitZeroExposureMeansNoStall(t *testing.T) {
	p := PhaseDef{Instructions: 1, MissPerInstr: 0.1, IPC: 1, Exposure: ptr(0.0)}
	seg := p.segment()
	if seg.Exposure != workload.ExposureNone {
		t.Errorf("exposure 0 compiled to %g, want ExposureNone", seg.Exposure)
	}
	if seg.StallFraction() != 0 {
		t.Errorf("stall fraction = %g, want 0", seg.StallFraction())
	}
	if !seg.Valid() {
		t.Error("zero-stall segment invalid")
	}
	unset := PhaseDef{Instructions: 1, MissPerInstr: 0.1, IPC: 1}
	if got := unset.segment().StallFraction(); got != 1 {
		t.Errorf("unset exposure stall = %g, want 1", got)
	}
}

// TestWorkloadPhasesBudget: the compiled workload.Phase view must carry
// the same scaled instruction budget the built source executes.
func TestWorkloadPhasesBudget(t *testing.T) {
	d := burstyDef()
	const scale = 0.25
	phases := d.WorkloadPhases(Params{Cores: 20, Scale: scale})
	var want float64
	for _, p := range d.Phases {
		want += p.Instructions * scale
	}
	if got := workload.TotalInstructions(phases); got < want*0.999 || got > want*1.001 {
		t.Errorf("total instructions = %g, want ≈%g", got, want)
	}
	// And the executed stream agrees (jitter is zero-mean, so a jittered
	// phase still sums close to its budget).
	src, err := d.Build(Params{Cores: 4, Scale: 0.001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var ran float64
	for _, seg := range drain(t, src, 4) {
		ran += seg.Instructions
	}
	budget := workload.TotalInstructions(d.WorkloadPhases(Params{Cores: 4, Scale: 0.001}))
	if ran < budget*0.9 || ran > budget*1.1 {
		t.Errorf("executed %g instructions, compiled budget %g", ran, budget)
	}
}

// TestJitterDomainSeparation pins the fix for the correlated-draw
// defect: the DSL's miss-wobble stream must not reproduce the
// work-sharing runtime's chunk-jitter stream for the same
// (seed, step, index) triples.
func TestJitterDomainSeparation(t *testing.T) {
	for step := 0; step < 8; step++ {
		if jitter(42, step, 0) == sched.IndexJitter(42, step, 0) {
			t.Fatalf("step %d: scenario jitter equals the runtime's chunk jitter — missing domain tag", step)
		}
	}
}

// drain executes a source to completion with a serial driver, recording
// every segment in claim order. The simulated clock advances every
// sweep so work-sharing barrier releases (which wait one timestamp) can
// open.
func drain(t *testing.T, src workload.Source, cores int) []workload.Segment {
	t.Helper()
	var segs []workload.Segment
	now := 1.0
	for i := 0; !src.Done(); i++ {
		if i > 1e6 {
			t.Fatal("source did not finish")
		}
		for c := 0; c < cores; c++ {
			if seg, ok := src.NextSegment(c, now); ok {
				segs = append(segs, seg)
				src.Complete(c, now)
			}
		}
		now++
	}
	return segs
}

// TestBuildDeterministic: equal (definition, Params) must produce
// byte-equal segment streams — the property RunSpec hashing relies on.
func TestBuildDeterministic(t *testing.T) {
	for _, decomp := range []string{WorkSharing, TaskDAG} {
		d := burstyDef()
		d.Decomposition = decomp
		d.Iterations = 2
		a, err := d.Build(Params{Cores: 4, Scale: 0.001, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Build(Params{Cores: 4, Scale: 0.001, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := drain(t, a, 4), drain(t, b, 4)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: same seed produced different segment streams (%d vs %d segs)", decomp, len(sa), len(sb))
		}
		if len(sa) == 0 {
			t.Errorf("%s: empty segment stream", decomp)
		}
	}
}

func TestBuildSeedChangesJitter(t *testing.T) {
	d := computeBoundDef() // has JitterFrac > 0
	d.Iterations = 2
	a, _ := d.Build(Params{Cores: 2, Scale: 0.001, Seed: 1})
	b, _ := d.Build(Params{Cores: 2, Scale: 0.001, Seed: 2})
	if reflect.DeepEqual(drain(t, a, 2), drain(t, b, 2)) {
		t.Error("different seeds produced identical jittered streams")
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	d := burstyDef()
	if _, err := d.Build(Params{Cores: 0, Scale: 1}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := d.Build(Params{Cores: 2, Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	bad := Definition{Name: ""}
	if _, err := bad.Build(Params{Cores: 2, Scale: 1}); err == nil {
		t.Error("invalid definition built")
	}
}

// TestCorunMixPartitions drives the co-run built-in end to end: both
// partition components must contribute work and the mix must finish.
func TestCorunMixPartitions(t *testing.T) {
	e, ok := Get("corun-mix")
	if !ok {
		t.Fatal("corun-mix not registered")
	}
	src, err := e.Build(Params{Cores: 4, Scale: 0.0005, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	segs := drain(t, src, 4)
	if len(segs) == 0 {
		t.Fatal("corun mix produced no work")
	}
	if _, err := e.Build(Params{Cores: 1, Scale: 1, Seed: 1}); err == nil {
		t.Error("corun-mix on one core must error")
	}
}

func TestEstimateSecondsPositive(t *testing.T) {
	for _, name := range Names() {
		e, _ := Get(name)
		if e.NominalSeconds <= 0 {
			t.Errorf("%s: nominal seconds %g", name, e.NominalSeconds)
		}
	}
	d := memoryBoundDef()
	if est := d.EstimateSeconds(20); est <= 0 || est > 3600 {
		t.Errorf("memory-bound estimate %g s implausible", est)
	}
}

// TestTaskDAGRoundAllocatesNothingPerTask: inside a task-dag finish scope,
// whose tree interprets each task as its own chunk range, dispatching and
// expanding tasks allocates nothing.
func TestTaskDAGRoundAllocatesNothingPerTask(t *testing.T) {
	const cores = 4
	tree := &dagTree{
		region: sched.Region{Seg: workload.Segment{Instructions: 1e5, MissPerInstr: 0.01, IPC: 1.5}, Chunks: 4096, JitterFrac: 0.1},
		spawn:  workload.Segment{Instructions: 2000, MissPerInstr: 0.002, IPC: 1.5},
		seed:   7,
	}
	roots := []sched.Task{{Lo: 0, Hi: tree.region.Chunks}}
	rounds := 0
	gen := func(round int) ([]sched.Task, sched.Tree, bool) {
		rounds++
		tree.round = round
		return roots, tree, true
	}
	ws := sched.NewWorkStealing(cores, gen, 7)
	pair := func() {
		for c := range cores {
			if _, ok := ws.NextSegment(c, 0); ok {
				ws.Complete(c, 0)
			}
		}
	}
	// Three whole rounds grow the deques; round 4 has just been released.
	for rounds < 4 {
		pair()
	}
	// runs == 1 counts exactly, where a larger runs would truncate.
	if n := testing.AllocsPerRun(1, func() {
		for range 250 {
			pair()
		}
	}); n != 0 {
		t.Errorf("1000 task-dag task pairs allocated %v times, want 0", n)
	}
	if rounds != 4 {
		t.Fatalf("the measured window crossed into round %d", rounds)
	}
}
