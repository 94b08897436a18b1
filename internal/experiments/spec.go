package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bench"
	"repro/internal/governor"
	"repro/internal/scenario"
)

// ErrInvalidSpec tags validation failures so the HTTP layer can map them
// to 400 responses; the wrapped message names the offending field.
var ErrInvalidSpec = errors.New("experiments: invalid spec")

// Spec is one run as a value. Every field is part of the canonical form
// and therefore of the content hash, and the harnesses read the spec
// itself (Options embeds it), so the hashed description of a run is the
// only one.
type Spec struct {
	// Experiment names the harness: "run" (single benchmark, the
	// default), or any cuttlefish subcommand ("table1", "fig10", …).
	Experiment string `json:"experiment,omitempty"`
	// Benchmark is the Table 1 benchmark name; only "run" consults it.
	Benchmark string `json:"benchmark,omitempty"`
	// Scenario names a registered workload scenario (see
	// internal/scenario); only "run" consults it, and exactly one of
	// Benchmark, Scenario and ScenarioDef may be set. A Scenario naming a
	// Table 1 benchmark normalizes into Benchmark, so both spellings
	// share one cache key.
	Scenario string `json:"scenario,omitempty"`
	// ScenarioDef is an inline scenario definition — a JSON phase
	// program evaluated without being registered anywhere. Its
	// normalized form is part of the canonical serialization, so an
	// inline scenario is exactly as content-addressable as a named one.
	ScenarioDef *scenario.Definition `json:"scenario_def,omitempty"`
	// Governor is the registered strategy; empty means the experiment's
	// paper default.
	Governor string `json:"governor,omitempty"`
	// Cores is the simulated core count (0 = 20, the paper's socket).
	Cores int `json:"cores,omitempty"`
	// Scale shrinks the paper's 60–80 s runs (0 = the CLI default 0.30).
	Scale float64 `json:"scale,omitempty"`
	// Reps is repetitions per data point (0 = 5).
	Reps int `json:"reps,omitempty"`
	// Seed is the base RNG seed; repetition r uses Seed+r (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// TinvSec is the daemon profiling interval (0 = 20 ms).
	TinvSec float64 `json:"tinv_sec,omitempty"`
	// WarmupSec is the daemon warmup (0 = the paper's 2 s; negative
	// disables it, governor.Tuning semantics).
	WarmupSec float64 `json:"warmup_sec,omitempty"`
	// Model selects the parallel runtime ("openmp" or "hclib").
	Model string `json:"model,omitempty"`
}

// experimentUsesGovernor lists the single-environment experiments whose
// harness honours Governor; every other harness constructs its
// comparison strategies itself.
func experimentUsesGovernor(name string) bool {
	return name == "run" || name == "table1"
}

// Normalized returns the spec with every defaulted field made explicit
// and every field the selected experiment ignores zeroed, so specs that
// mean the same run compare — and hash — equal: a stray benchmark on a
// table1 spec, or a governor on a fig10 spec (whose harness picks its own
// comparison set), would otherwise duplicate cache entries for runs that
// produce identical bytes. It does not validate; call Validate on the
// result.
func (s Spec) Normalized() Spec {
	def := DefaultOptions()
	if s.Experiment == "" {
		s.Experiment = "run"
	}
	if s.Experiment != "run" {
		// Only "run" consults the workload selectors.
		s.Benchmark, s.Scenario, s.ScenarioDef = "", "", nil
	}
	// The workload selectors canonicalize against the scenario registry:
	// a Scenario naming a Table 1 benchmark folds into Benchmark, and a
	// Benchmark naming a registered synthetic scenario folds into
	// Scenario, so either spelling of the same workload hashes equal
	// (and `-bench bursty` just works). A selector folds only into an
	// empty one: a spec naming two workloads keeps both, and Validate
	// rejects it.
	if s.Scenario != "" && s.Benchmark == "" {
		if e, ok := scenario.Get(s.Scenario); ok && e.Kind == scenario.KindBench {
			s.Benchmark, s.Scenario = s.Scenario, ""
		}
	} else if s.Benchmark != "" && s.Scenario == "" {
		if _, isBench := bench.Get(s.Benchmark); !isBench && scenario.Exists(s.Benchmark) {
			s.Scenario, s.Benchmark = s.Benchmark, ""
		}
	}
	if s.ScenarioDef != nil {
		norm := s.ScenarioDef.Normalized()
		s.ScenarioDef = &norm
	}
	if !experimentUsesGovernor(s.Experiment) {
		s.Governor = ""
	} else if s.Governor == "" {
		s.Governor = governor.Default // both harnesses' paper default
	}
	if s.Cores == 0 {
		s.Cores = def.Cores
	}
	if s.Scale == 0 {
		s.Scale = def.Scale
	}
	if s.Reps == 0 {
		s.Reps = def.Reps
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	if s.TinvSec == 0 {
		s.TinvSec = def.TinvSec
	}
	if s.WarmupSec == 0 {
		s.WarmupSec = def.WarmupSec
	}
	if s.Model == "" {
		s.Model = def.Model
	}
	return s
}

// Validate checks a normalized spec against the registries, failing fast
// — before any queue slot or simulation time is spent — on unknown
// experiments, benchmarks, governors or models. All failures wrap
// ErrInvalidSpec.
func (s Spec) Validate() error {
	if !Known(s.Experiment) {
		return fmt.Errorf("%w: unknown experiment %q (known: %v)", ErrInvalidSpec, s.Experiment, Names)
	}
	if s.Experiment == "run" {
		selectors := 0
		for _, set := range []bool{s.Benchmark != "", s.Scenario != "", s.ScenarioDef != nil} {
			if set {
				selectors++
			}
		}
		switch {
		case selectors == 0:
			return fmt.Errorf("%w: experiment \"run\" needs a workload: a benchmark (known: %v), a scenario (registered: %v) or an inline scenario_def",
				ErrInvalidSpec, bench.Names(), scenario.NamesOf(scenario.KindSynthetic))
		case selectors > 1:
			return fmt.Errorf("%w: benchmark, scenario and scenario_def are mutually exclusive", ErrInvalidSpec)
		}
		if s.Benchmark != "" {
			if _, ok := bench.Get(s.Benchmark); !ok {
				return fmt.Errorf("%w: unknown benchmark %q (known: %v)", ErrInvalidSpec, s.Benchmark, bench.Names())
			}
		}
		if s.Scenario != "" && !scenario.Exists(s.Scenario) {
			return fmt.Errorf("%w: unknown scenario %q (registered: %v)", ErrInvalidSpec, s.Scenario, scenario.Names())
		}
		if s.ScenarioDef != nil {
			if err := s.ScenarioDef.Validate(); err != nil {
				return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
			}
		}
	}
	if s.Governor != "" && !governor.Exists(s.Governor) {
		return fmt.Errorf("%w: unknown governor %q (registered: %v)", ErrInvalidSpec, s.Governor, governor.Names())
	}
	switch bench.Model(s.Model) {
	case bench.OpenMP, bench.HClib:
	default:
		return fmt.Errorf("%w: unknown model %q (want openmp or hclib)", ErrInvalidSpec, s.Model)
	}
	if s.Cores < 1 {
		return fmt.Errorf("%w: cores must be positive, got %d", ErrInvalidSpec, s.Cores)
	}
	if s.Scale <= 0 {
		return fmt.Errorf("%w: scale must be positive, got %g", ErrInvalidSpec, s.Scale)
	}
	if s.Reps < 1 {
		return fmt.Errorf("%w: reps must be positive, got %d", ErrInvalidSpec, s.Reps)
	}
	if s.TinvSec <= 0 {
		return fmt.Errorf("%w: tinv_sec must be positive, got %g", ErrInvalidSpec, s.TinvSec)
	}
	return nil
}

// Canonical returns the spec's canonical serialization: the normalized
// spec encoded with Go's fixed struct field order. Two specs describe the
// same run iff their canonical bytes are equal.
func (s Spec) Canonical() []byte {
	c := s.Normalized()
	raw, err := json.Marshal(c)
	if err != nil {
		// Spec is a struct of scalars plus one plain nested struct
		// (the scenario definition); Marshal cannot fail on either.
		panic(fmt.Sprintf("experiments: canonical marshal: %v", err))
	}
	return raw
}

// Hash returns the content address of the run: the hex SHA-256 of the
// canonical serialization. The result cache, request coalescing and job
// IDs all key on it.
func (s Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}
