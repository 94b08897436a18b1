package service

import (
	"encoding/json"
	"errors"
	"math"
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
		TinvSec: def.TinvSec, WarmupSec: def.WarmupSec, Model: def.Model,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("implicit-defaults hash %s != explicit-defaults hash %s",
			implicit.Hash(), explicit.Hash())
	}
}

// TestCanonicalHashesPinned pins the content address of a few specs that
// cover the canonical form's parts: a cold-novel-style scenario request,
// a non-"run" experiment, an inline scenario_def and a non-default
// runtime model. The result cache, the disk store and every
// client key on these bytes, so a change here re-keys stored results and
// must be deliberate.
func TestCanonicalHashesPinned(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"scenario":"bursty","governor":"cuttlefish","scale":0.03,"warmup_sec":0.25,"reps":1,"seed":1234567891}`,
			"fa8f025255add7c87f022b30aee7c234748dd65b14179451d520983759f3f996"},
		{`{"experiment":"table1"}`,
			"4e9a53478569024e77c5b4917313f7a2d566799ce93fcf4b4bd99836d45d08cc"},
		{`{"scenario_def":{"name":"p","phases":[{"instructions":3e11,"miss_per_instr":0.0005,"ipc":2},{"instructions":1e11,"miss_per_instr":0.004,"ipc":1.6,"remote_frac":0.2}]},"governor":"cuttlefish-uncore","scale":0.05,"seed":7}`,
			"b19882103e9b5738e47a899ccad1b9f979af3778cb4fbc364980bbc2711c565c"},
		{`{"benchmark":"SOR-ws","model":"hclib","governor":"powersave"}`,
			"4bcd7734a93add21b6550c4201e16a75d16247e947ee8740de5b4cac76061e84"},
	}
	for _, c := range cases {
		var s RunSpec
		if err := json.Unmarshal([]byte(c.doc), &s); err != nil {
			t.Fatal(err)
		}
		if err := s.Normalized().Validate(); err != nil {
			t.Fatalf("%s: %v", c.doc, err)
		}
		if got := s.Hash(); got != c.want {
			t.Errorf("%s\nhash %s, want %s\ncanonical %s", c.doc, got, c.want, s.Canonical())
		}
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
		{"cores over the cap", RunSpec{Benchmark: "UTS", Cores: 1025}, "cores must be at most 1024"},
		{"cores 2^30", RunSpec{Benchmark: "UTS", Cores: 1 << 30}, "cores must be at most 1024"},
		{"reps over the cap", RunSpec{Benchmark: "UTS", Reps: 1001}, "reps must be at most 1000"},
		{"reps 2^30", RunSpec{Benchmark: "UTS", Reps: 1 << 30}, "reps must be at most 1000"},
		{"scale over the cap", RunSpec{Benchmark: "UTS", Scale: 10.000001}, "scale must be at most 10"},
		{"scale 1e9", RunSpec{Benchmark: "UTS", Scale: 1e9}, "scale must be at most 10"},
		{"NaN scale", RunSpec{Benchmark: "UTS", Scale: math.NaN()}, "scale must be finite"},
		{"infinite scale", RunSpec{Benchmark: "UTS", Scale: math.Inf(1)}, "scale must be finite"},
		{"NaN tinv", RunSpec{Benchmark: "UTS", TinvSec: math.NaN()}, "tinv_sec must be finite"},
		{"infinite tinv", RunSpec{Benchmark: "UTS", TinvSec: math.Inf(1)}, "tinv_sec must be finite"},
		{"NaN warmup", RunSpec{Benchmark: "UTS", WarmupSec: math.NaN()}, "warmup_sec must be finite"},
		{"infinite warmup", RunSpec{Benchmark: "UTS", WarmupSec: math.Inf(-1)}, "warmup_sec must be finite"},
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
	// Each cap is itself valid. Only Validate runs here, never a run.
	atCaps := RunSpec{Benchmark: "UTS", Cores: 1024, Reps: 1000, Scale: 10}
	if err := atCaps.Normalized().Validate(); err != nil {
		t.Errorf("a spec at every cap: %v", err)
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
		// Each selector names a workload the other would fold into; both
		// must survive normalization so Validate sees two workloads.
		{"synthetic benchmark and bench scenario", RunSpec{Benchmark: "bursty", Scenario: "UTS"}, "mutually exclusive"},
		{"two Table 1 benchmarks", RunSpec{Benchmark: "UTS", Scenario: "SOR-ws"}, "mutually exclusive"},
		{"two synthetic scenarios", RunSpec{Benchmark: "bursty", Scenario: "ramp"}, "mutually exclusive"},
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
