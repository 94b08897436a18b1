package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// realSpec is a tiny but real simulation: Heat-irt under the cuttlefish
// governor, small enough for unit tests, real enough to exercise the full
// engine → governor → report pipeline behind the cache.
func realSpec() RunSpec {
	return RunSpec{Benchmark: "Heat-irt", Governor: "cuttlefish", Scale: 0.02, Reps: 1}
}

// TestCachedEqualsFreshByteIdentical is the acceptance-criterion test:
// for the same RunSpec, the cached response and a freshly computed one
// (new service, empty cache, fresh machines) must be byte-identical. This
// is what makes the shared cache sound — it can only hold if the
// simulation is a bit-deterministic function of the spec and the report
// encoding is canonical.
func TestCachedEqualsFreshByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	spec := realSpec()

	s1 := newTestService(t, Config{Workers: 1})
	fresh1, err := s1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh1.Outcome != OutcomeMiss {
		t.Fatalf("first run outcome = %s, want miss", fresh1.Outcome)
	}
	cached, err := s1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Outcome != OutcomeHit {
		t.Fatalf("second run outcome = %s, want hit", cached.Outcome)
	}
	if !bytes.Equal(fresh1.Body, cached.Body) {
		t.Error("cache hit returned different bytes than the execution that populated it")
	}

	// A completely fresh service recomputes from scratch; determinism
	// says the bytes must match the other instance's cache.
	s2 := newTestService(t, Config{Workers: 1})
	fresh2, err := s2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2.Outcome != OutcomeMiss {
		t.Fatalf("fresh-service outcome = %s, want miss", fresh2.Outcome)
	}
	if !bytes.Equal(cached.Body, fresh2.Body) {
		t.Errorf("cached response differs from freshly computed one:\ncached: %d bytes\nfresh:  %d bytes",
			len(cached.Body), len(fresh2.Body))
	}
}

// scenarioJSON is a small inline phase program used by the scenario
// determinism tests: work-sharing decomposition, jittered, two phases —
// enough to exercise every DSL code path that feeds the hash.
const scenarioJSON = `{
	"name": "det-probe",
	"iterations": 6,
	"phases": [
		{"instructions": 4e10, "miss_per_instr": 0.004, "ipc": 2.0, "jitter_frac": 0.05},
		{"instructions": 8e9, "miss_per_instr": 0.09, "ipc": 1.0, "exposure": 0.8, "miss_jitter": 0.004}
	]
}`

func scenarioSpec(t *testing.T) RunSpec {
	t.Helper()
	def, err := scenario.ParseDefinition([]byte(scenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	return RunSpec{ScenarioDef: &def, Scale: 1, Reps: 1, Governor: "cuttlefish"}
}

// TestScenarioCachedEqualsFreshByteIdentical extends the cache-soundness
// acceptance test to DSL workloads: an inline scenario's cached response
// and a fresh recomputation on a second service must be byte-identical,
// which is what lets scenario RunSpecs round-trip through the service
// cache exactly like benchmark specs.
func TestScenarioCachedEqualsFreshByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	spec := scenarioSpec(t)

	s1 := newTestService(t, Config{Workers: 1})
	fresh, err := s1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Outcome != OutcomeMiss {
		t.Fatalf("first run outcome = %s, want miss", fresh.Outcome)
	}
	cached, err := s1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Outcome != OutcomeHit {
		t.Fatalf("second run outcome = %s, want hit", cached.Outcome)
	}
	if !bytes.Equal(fresh.Body, cached.Body) {
		t.Error("scenario cache hit differs from the execution that populated it")
	}

	s2 := newTestService(t, Config{Workers: 1})
	fresh2, err := s2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Body, fresh2.Body) {
		t.Error("scenario recomputed on a fresh service differs from the cached bytes")
	}

	// The canonical report must carry real measurements, not an empty
	// row set that would trivially compare equal.
	var rep struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(fresh.Body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("scenario report rows = %d, want 1", len(rep.Rows))
	}
	if sec, _ := rep.Rows[0]["seconds"].(float64); sec <= 0 {
		t.Errorf("scenario run seconds = %v, want positive", rep.Rows[0]["seconds"])
	}
}

// TestScenarioDeterministicAcrossEngineWorkers is the scenario half of
// the engine determinism contract: a work-sharing DSL scenario — whose
// jitter is pure index hashing, never a sequential draw — must produce
// bit-identical reports whether the simulated machine runs serial or
// sharded across engine workers. (The specs still hash separately:
// sim_workers stays in the content hash until caches are re-keyed.)
func TestScenarioDeterministicAcrossEngineWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()

	serial := scenarioSpec(t)
	sharded := serial
	sharded.SimWorkers = 3
	if serial.Hash() == sharded.Hash() {
		t.Fatal("serial and sharded scenario specs must have distinct content addresses")
	}

	s1 := newTestService(t, Config{Workers: 1})
	r1, err := s1.Submit(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestService(t, Config{Workers: 1})
	r2, err := s2.Submit(ctx, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("work-sharing scenario must produce identical bytes serial vs sharded")
	}
}

// TestShardedSpecIsDistinctButDeterministic pins the two halves of the
// execution-knob decision. SimWorkers stays part of the content hash, so a
// sharded spec lives under its own cache key; and the engine's determinism
// contract holds, so a sharded execution of a work-sharing source — which
// really runs on the worker pool — reproduces the serial bytes.
func TestShardedSpecIsDistinctButDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()

	serial := RunSpec{Benchmark: "SOR-ws", Governor: "cuttlefish", Scale: 0.04, Reps: 1}
	sharded := serial
	sharded.SimWorkers = 3
	if serial.Hash() == sharded.Hash() {
		t.Fatal("serial and sharded specs must have distinct content addresses")
	}

	s1 := newTestService(t, Config{Workers: 1})
	r1, err := s1.Submit(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestService(t, Config{Workers: 1})
	r2, err := s2.Submit(ctx, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("work-sharing source must produce identical bytes serial vs sharded (engine determinism contract)")
	}
}
