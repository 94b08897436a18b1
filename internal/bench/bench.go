// Package bench implements the ten benchmarks of the paper's Table 1 as
// workload generators for the simulated machine: UTS, three SOR variants,
// three Heat variants, MiniFE, HPCCG and AMG.
//
// Each benchmark is characterised by the quantities Cuttlefish can observe
// — instruction throughput, TOR-insert density (TIPI), prefetch exposure
// and phase structure — and by its concurrency decomposition: irregular
// task DAGs (irt), regular task DAGs (rt, per the Chen et al. construction
// of Fig. 1) or work-sharing loops (ws). The irt/rt variants run on either
// task runtime (OpenMP tasking or HClib work stealing); the ws variants and
// the three mini-applications are work-sharing only, matching §5.2's
// porting scope.
//
// The per-benchmark densities are calibrated to land inside Table 1's TIPI
// ranges; total instruction budgets are sized so a Default execution takes
// roughly the paper's wall time multiplied by the caller's scale factor.
package bench

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Style is the concurrency decomposition of Table 1.
type Style string

const (
	IrregularTasks Style = "irregular-tasks"
	RegularTasks   Style = "regular-tasks"
	WorkSharing    Style = "work-sharing"
)

// Model selects the parallel runtime implementation (§5.2): the OpenMP
// runtime or the HClib async–finish library. Both task models execute the
// same DAG; they differ in scheduler constants (HClib's steal path is
// leaner than libomp's task queues), which is exactly the paper's point —
// Cuttlefish behaves the same under either.
type Model string

const (
	OpenMP Model = "openmp"
	HClib  Model = "hclib"
)

// Spec describes one benchmark.
type Spec struct {
	// Name as the paper spells it, e.g. "Heat-irt".
	Name string
	// Style is the concurrency decomposition.
	Style Style
	// TIPILow and TIPIHigh are Table 1's reported TIPI range, used for
	// validation and reporting.
	TIPILow, TIPIHigh float64
	// PaperSeconds is Table 1's Default-execution wall time.
	PaperSeconds float64
	// HClibPort reports whether §5.2 ported this benchmark to HClib.
	HClibPort bool

	build func(p Params) workload.Source
}

// Params parametrise benchmark construction.
type Params struct {
	Cores int
	// Scale multiplies the instruction budget: 1.0 reproduces the paper's
	// 60–80 s runs, smaller values shrink them proportionally.
	Scale float64
	Seed  int64
	Model Model
}

// Build instantiates the benchmark's workload source.
func (s Spec) Build(p Params) (workload.Source, error) {
	if p.Cores <= 0 {
		return nil, fmt.Errorf("bench: cores must be positive, got %d", p.Cores)
	}
	if p.Scale <= 0 {
		return nil, fmt.Errorf("bench: scale must be positive, got %g", p.Scale)
	}
	if p.Model == "" {
		p.Model = OpenMP
	}
	if p.Model == HClib && !s.HClibPort {
		return nil, fmt.Errorf("bench: %s has no HClib port (§5.2)", s.Name)
	}
	if p.Model != OpenMP && p.Model != HClib {
		return nil, fmt.Errorf("bench: unknown model %q", p.Model)
	}
	return s.build(p), nil
}

// stealOverhead returns the runtime's steal-path cost in instructions.
func stealOverhead(m Model) float64 {
	if m == HClib {
		return sched.StealOverheadHClib
	}
	return sched.StealOverheadOpenMP
}

// newTaskRuntime builds the work-stealing runtime used for both task
// models, with model-specific overhead constants.
func newTaskRuntime(p Params, gen sched.RoundGen) *sched.WorkStealing {
	ws := sched.NewWorkStealing(p.Cores, gen, p.Seed)
	ws.StealOverheadInstr = stealOverhead(p.Model)
	return ws
}

// init registers the ten Table 1 benchmarks with the shared scenario
// registry, in Table 1 order. This package holds only the construction
// logic; naming and lookup live in repro/internal/scenario, so the
// benchmarks flow through the same registry the synthetic scenarios and
// user JSON phase programs do — All/Get/Names below are thin views over
// it.
func init() {
	for _, s := range []Spec{
		utsSpec(),
		sorSpec(IrregularTasks),
		sorSpec(RegularTasks),
		sorWSSpec(),
		heatSpec(IrregularTasks),
		heatSpec(RegularTasks),
		heatWSSpec(),
		miniFESpec(),
		hpccgSpec(),
		amgSpec(),
	} {
		scenario.MustRegister(s.Entry())
	}
}

// Entry adapts the benchmark to a registry entry — the one workload type
// the experiment harnesses simulate. The Spec itself rides along as the
// entry payload so the views below can return it without a parallel
// lookup table.
func (s Spec) Entry() scenario.Entry {
	return scenario.Entry{
		Name:           s.Name,
		Kind:           scenario.KindBench,
		Description:    fmt.Sprintf("Table 1 benchmark, %s, TIPI %.3f-%.3f", s.Style, s.TIPILow, s.TIPIHigh),
		NominalSeconds: s.PaperSeconds,
		Build: func(p scenario.Params) (workload.Source, error) {
			return s.Build(Params{Cores: p.Cores, Scale: p.Scale, Seed: p.Seed, Model: Model(p.Model)})
		},
		Payload: s,
	}
}

// All returns the benchmark specs in Table 1 order (the order this
// package registered them in).
func All() []Spec {
	names := scenario.NamesOf(scenario.KindBench)
	out := make([]Spec, len(names))
	for i, n := range names {
		e, _ := scenario.Get(n)
		out[i] = e.Payload.(Spec)
	}
	return out
}

// Get looks a benchmark up by its Table 1 name — a view over the
// scenario registry restricted to bench-kind entries.
func Get(name string) (Spec, bool) {
	e, ok := scenario.Get(name)
	if !ok || e.Kind != scenario.KindBench {
		return Spec{}, false
	}
	return e.Payload.(Spec), true
}

// Names returns all benchmark names in Table 1 order.
func Names() []string {
	return scenario.NamesOf(scenario.KindBench)
}

// HClibNames returns the benchmarks evaluated under HClib in §5.2, in
// Table 1 order.
func HClibNames() []string {
	var out []string
	for _, s := range All() {
		if s.HClibPort {
			out = append(out, s.Name)
		}
	}
	return out
}
