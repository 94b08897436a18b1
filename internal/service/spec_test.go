package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestHashStableAcrossFieldReordering is the wire-level canonicalisation
// check: the same spec serialized with its JSON fields in any order must
// hash to the same content address, or clients with different field
// orders would never share cache entries.
func TestHashStableAcrossFieldReordering(t *testing.T) {
	docs := []string{
		`{"experiment":"run","benchmark":"UTS","governor":"cuttlefish","scale":0.1,"seed":7}`,
		`{"seed":7,"scale":0.1,"governor":"cuttlefish","benchmark":"UTS","experiment":"run"}`,
		`{"governor":"cuttlefish","experiment":"run","seed":7,"benchmark":"UTS","scale":0.1}`,
	}
	var hashes []string
	for _, doc := range docs {
		var s RunSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, s.Hash())
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Errorf("doc %d hash = %s, doc 0 hash = %s", i, h, hashes[0])
		}
	}
}

// TestHashTreatsDefaultsAsExplicit: leaving a field at its default and
// spelling the default out are the same run, so they share a hash.
func TestHashTreatsDefaultsAsExplicit(t *testing.T) {
	def := experiments.DefaultOptions()
	implicit := RunSpec{Benchmark: "UTS"}
	explicit := RunSpec{
		Experiment: "run", Benchmark: "UTS", Governor: "default",
		Cores: def.Cores, Scale: def.Scale, Reps: def.Reps, Seed: def.Seed,
		TinvSec: def.TinvSec, WarmupSec: def.WarmupSec, Model: string(def.Model),
	}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("implicit-defaults hash %s != explicit-defaults hash %s",
			implicit.Hash(), explicit.Hash())
	}
}

// TestHashIncludesExecutionKnobs: both engine knobs stay in the content
// hash — batch_quanta changes lifetime totals in the last bits, and
// dropping sim_workers would re-key every stored result — so a sharded
// run and a serial run must NOT share a cache entry.
func TestHashIncludesExecutionKnobs(t *testing.T) {
	serial := RunSpec{Benchmark: "UTS"}
	sharded := RunSpec{Benchmark: "UTS", SimWorkers: 8}
	batched := RunSpec{Benchmark: "UTS", BatchQuanta: 64}
	if serial.Hash() == sharded.Hash() {
		t.Error("sim_workers must be part of the content hash")
	}
	if serial.Hash() == batched.Hash() {
		t.Error("batch_quanta must be part of the content hash")
	}
}

// TestHashSeparatesDistinctRuns: any semantic field difference must
// produce a different address.
func TestHashSeparatesDistinctRuns(t *testing.T) {
	base := RunSpec{Benchmark: "UTS"}
	variants := []RunSpec{
		{Benchmark: "AMG"},
		{Benchmark: "UTS", Governor: "powersave"},
		{Benchmark: "UTS", Seed: 2},
		{Benchmark: "UTS", Scale: 0.5},
		{Benchmark: "UTS", Cores: 10},
		{Benchmark: "UTS", Reps: 2},
		{Benchmark: "UTS", TinvSec: 0.04},
		{Benchmark: "UTS", Model: "hclib"},
		{Experiment: "table1"},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[h] = i
	}
}

// TestHashDropsFieldsTheExperimentIgnores: a stray benchmark on table1,
// or a governor on a comparison experiment whose harness picks its own
// strategies, must not split cache entries for runs that produce
// identical bytes.
func TestHashDropsFieldsTheExperimentIgnores(t *testing.T) {
	plain := RunSpec{Experiment: "table1"}
	strayBench := RunSpec{Experiment: "table1", Benchmark: "UTS"}
	if plain.Hash() != strayBench.Hash() {
		t.Error("table1 ignores benchmark; the hash must too")
	}
	explicitDefault := RunSpec{Experiment: "table1", Governor: "default"}
	if plain.Hash() != explicitDefault.Hash() {
		t.Error("table1 under \"\" and \"default\" is the same run")
	}
	fig10 := RunSpec{Experiment: "fig10"}
	fig10Gov := RunSpec{Experiment: "fig10", Governor: "powersave"}
	if fig10.Hash() != fig10Gov.Hash() {
		t.Error("fig10 builds its own comparison set; a stray governor must not split the cache")
	}
	// ...but where the field is honoured, it must keep separating runs.
	t1Powersave := RunSpec{Experiment: "table1", Governor: "powersave"}
	if plain.Hash() == t1Powersave.Hash() {
		t.Error("table1 honours the governor; distinct governors are distinct runs")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"unknown experiment", RunSpec{Experiment: "table9"}, "experiment"},
		{"run without benchmark", RunSpec{Experiment: "run"}, "benchmark"},
		{"unknown benchmark", RunSpec{Benchmark: "LINPACK"}, "benchmark"},
		{"unknown governor", RunSpec{Benchmark: "UTS", Governor: "turbo"}, "governor"},
		{"unknown model", RunSpec{Benchmark: "UTS", Model: "tbb"}, "model"},
		{"negative scale", RunSpec{Benchmark: "UTS", Scale: -1}, "scale"},
		{"negative cores", RunSpec{Benchmark: "UTS", Cores: -4}, "cores"},
		{"negative reps", RunSpec{Benchmark: "UTS", Reps: -1}, "reps"},
		{"negative tinv", RunSpec{Benchmark: "UTS", TinvSec: -0.02}, "tinv"},
	}
	for _, c := range cases {
		err := c.spec.Normalized().Validate()
		if err == nil {
			t.Errorf("%s: want error", c.name)
			continue
		}
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: error %v does not wrap ErrInvalidSpec", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsAllExperiments(t *testing.T) {
	for _, name := range experiments.Names {
		s := RunSpec{Experiment: name, Benchmark: "UTS"}.Normalized()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScenarioFieldsHashStable: scenario selectors go through the same
// canonicalisation as everything else — defaults spelled out or omitted,
// JSON fields in any order, same content address.
func TestScenarioFieldsHashStable(t *testing.T) {
	implicitDoc := `{"scenario_def":{"name":"p","phases":[{"instructions":1e9,"miss_per_instr":0.02,"ipc":1.2}]}}`
	explicitDoc := `{"experiment":"run","scenario_def":{"name":"p","decomposition":"work-sharing","iterations":1,
		"phases":[{"instructions":1e9,"miss_per_instr":0.02,"ipc":1.2,"exposure":1,"chunks_per_core":16,"repeat":1}]}}`
	var implicit, explicit RunSpec
	if err := json.Unmarshal([]byte(implicitDoc), &implicit); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(explicitDoc), &explicit); err != nil {
		t.Fatal(err)
	}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("scenario_def defaults must hash like spelled-out defaults:\n%s\n%s",
			implicit.Canonical(), explicit.Canonical())
	}
	if err := implicit.Normalized().Validate(); err != nil {
		t.Fatalf("inline scenario spec invalid: %v", err)
	}
}

// TestScenarioNameCanonicalization: the workload selectors fold against
// the registry — a Scenario naming a Table 1 benchmark and a Benchmark
// naming a synthetic scenario both normalize to the canonical field, so
// either spelling shares one cache entry.
func TestScenarioNameCanonicalization(t *testing.T) {
	asBench := RunSpec{Benchmark: "Heat-irt"}
	asScenario := RunSpec{Scenario: "Heat-irt"}
	if asBench.Hash() != asScenario.Hash() {
		t.Error("scenario:Heat-irt and benchmark:Heat-irt are the same run")
	}
	synthAsBench := RunSpec{Benchmark: "bursty"}
	synthAsScenario := RunSpec{Scenario: "bursty"}
	if synthAsBench.Hash() != synthAsScenario.Hash() {
		t.Error("benchmark:bursty and scenario:bursty are the same run")
	}
	norm := synthAsBench.Normalized()
	if norm.Benchmark != "" || norm.Scenario != "bursty" {
		t.Errorf("synthetic normalizes to scenario field, got %+v", norm)
	}
	if (RunSpec{Scenario: "bursty"}).Hash() == (RunSpec{Scenario: "memory-bound"}).Hash() {
		t.Error("distinct scenarios must hash distinctly")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"unknown scenario", RunSpec{Scenario: "no-such"}, "unknown scenario"},
		{"benchmark and scenario", RunSpec{Benchmark: "UTS", Scenario: "bursty"}, "mutually exclusive"},
		{"invalid inline def", RunSpec{ScenarioDef: &scenario.Definition{Name: "x"}}, "at least one phase"},
	}
	for _, c := range cases {
		err := c.spec.Normalized().Validate()
		if err == nil || !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec mentioning %q", c.name, err, c.want)
		}
	}
	if err := (RunSpec{Scenario: "bursty"}).Normalized().Validate(); err != nil {
		t.Errorf("registered scenario rejected: %v", err)
	}
	// Non-"run" experiments drop scenario selectors like they drop
	// benchmarks, so strays don't split cache entries.
	stray := RunSpec{Experiment: "table1", Scenario: "bursty"}
	if stray.Hash() != (RunSpec{Experiment: "table1"}).Hash() {
		t.Error("table1 ignores scenario; the hash must too")
	}
}

// TestSpecFromOptionsRoundTrip: the remote client's spec must map back to
// options that mean the same run.
func TestSpecFromOptionsRoundTrip(t *testing.T) {
	opt := experiments.DefaultOptions()
	opt.Governor = "powersave"
	opt.Scale = 0.07
	opt.Seed = 42
	opt.SimWorkers = 4
	spec := SpecFromOptions("table1", "", opt)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	back := spec.Options()
	if back.Governor != opt.Governor || back.Scale != opt.Scale ||
		back.Seed != opt.Seed || back.SimWorkers != opt.SimWorkers ||
		back.Cores != opt.Cores || back.Reps != opt.Reps {
		t.Errorf("round trip lost fields: sent %+v, got %+v", opt, back)
	}
}
