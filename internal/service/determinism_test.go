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
