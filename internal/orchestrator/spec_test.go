package orchestrator

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestExpandCrossProduct(t *testing.T) {
	sweep := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS", "SOR-irt"},
			Governors:  []string{"default", "cuttlefish"},
			TinvSec:    Axis{Values: []float64{0.01, 0.02}},
			Seeds:      Axis{Values: []float64{1, 2, 3}},
		},
	}
	specs, _, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2*3 {
		t.Fatalf("expanded %d specs, want 24", len(specs))
	}
	// Row-major order: the last axis (seeds) varies fastest.
	if specs[0].Seed != 1 || specs[1].Seed != 2 || specs[2].Seed != 3 {
		t.Errorf("seed order = %d,%d,%d, want 1,2,3", specs[0].Seed, specs[1].Seed, specs[2].Seed)
	}
	for _, s := range specs {
		if s.Experiment != "run" || s.Scale == 0 || s.Cores == 0 {
			t.Fatalf("spec not normalized: %+v", s)
		}
	}
}

// TestExpandDeduplicatesByHash also pins the silent-shrinkage fix: the
// dropped-duplicate count must come back alongside the surviving specs,
// so the CLI and summary can report why the sweep has fewer cells than
// its cross-product.
func TestExpandDeduplicatesByHash(t *testing.T) {
	sweep := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS", "UTS"}, // duplicated axis values
			Seeds:      Axis{Values: []float64{1, 1, 2}},
		},
	}
	specs, dropped, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded %d specs, want 2 after dedup", len(specs))
	}
	if want := 2*3 - 2; dropped != want {
		t.Errorf("dropped = %d, want %d (cross-product minus survivors)", dropped, want)
	}
}

// TestExpandScenariosAxis: registered scenarios sweep exactly like
// benchmarks, and the two merge into one workload dimension
// (benchmarks first).
func TestExpandScenariosAxis(t *testing.T) {
	sweep := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS"},
			Scenarios:  []string{"bursty", "memory-bound"},
			Seeds:      Axis{Values: []float64{1, 2}},
		},
	}
	specs, dropped, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3*2 || dropped != 0 {
		t.Fatalf("expanded %d specs (dropped %d), want 6 (0)", len(specs), dropped)
	}
	if specs[0].Benchmark != "UTS" || specs[0].Scenario != "" {
		t.Errorf("first workload = %+v, want benchmark UTS", specs[0])
	}
	if specs[2].Scenario != "bursty" || specs[2].Benchmark != "" {
		t.Errorf("third workload = bench %q scen %q, want scenario bursty", specs[2].Benchmark, specs[2].Scenario)
	}
	// A scenario axis naming a Table 1 benchmark normalizes into the
	// benchmark field and hash-dedups against the benchmarks axis.
	alias := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS"},
			Scenarios:  []string{"UTS"},
		},
	}
	specs, dropped, err = alias.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || dropped != 1 {
		t.Errorf("aliased workload: %d specs, %d dropped, want 1 and 1", len(specs), dropped)
	}
}

func TestExpandUnknownScenario(t *testing.T) {
	sweep := SweepSpec{Axes: Axes{Scenarios: []string{"no-such"}}}
	if _, _, err := sweep.Expand(); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("err = %v, want unknown scenario", err)
	}
	bad := SweepSpec{Experiment: "table1", Axes: Axes{Scenarios: []string{"bursty"}}}
	if _, _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), "ignores scenarios") {
		t.Errorf("err = %v, want ignores scenarios", err)
	}
}

func TestExpandDistributionAxisIsDeterministic(t *testing.T) {
	sweep := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS"},
			Scales:     Axis{Dist: &DistSpec{Dist: "kumaraswamy", A: 2, B: 3, N: 4, Seed: 9, Min: 0.01, Max: 0.05}},
		},
	}
	a, _, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("distribution axes must expand identically across calls")
	}
	if len(a) != 4 {
		t.Fatalf("expanded %d specs, want 4 sampled scales", len(a))
	}
	for _, s := range a {
		if s.Scale < 0.01 || s.Scale > 0.05 {
			t.Errorf("sampled scale %g escapes [0.01, 0.05]", s.Scale)
		}
	}
}

func TestParseSweepSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweepSpec([]byte(`{"axes": {"benchmarcks": ["UTS"]}}`)); err == nil {
		t.Error("typoed axis must be rejected, not silently ignored")
	}
	// Base fields are RunSpec fields: the removed engine knobs are as
	// unknown there as in a POST /v1/runs body.
	for _, field := range []string{"sim_workers", "batch_quanta"} {
		_, err := ParseSweepSpec([]byte(`{"base": {"` + field + `": 4}, "axes": {"benchmarks": ["UTS"]}}`))
		if !errors.Is(err, ErrBadSweep) || !strings.Contains(fmt.Sprint(err), field) {
			t.Errorf("base.%s: err = %v, want ErrBadSweep naming the field", field, err)
		}
	}
	if _, err := ParseSweepSpec([]byte(`{"axes": {"scales": {"dist": "zipf"}}}`)); err != nil {
		t.Fatalf("parse should defer distribution validation to Expand: %v", err)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name  string
		sweep SweepSpec
		want  string
	}{
		{"missing benchmarks", SweepSpec{}, "needs a benchmarks or scenarios axis"},
		{"unknown benchmark", SweepSpec{Axes: Axes{Benchmarks: []string{"NoSuch"}}}, "unknown benchmark"},
		{"unknown governor", SweepSpec{Axes: Axes{Benchmarks: []string{"UTS"}, Governors: []string{"warp"}}}, "unknown governor"},
		{"unknown distribution", SweepSpec{Axes: Axes{Benchmarks: []string{"UTS"},
			Scales: Axis{Dist: &DistSpec{Dist: "zipf", N: 3}}}}, "unknown distribution"},
		{"bad shape", SweepSpec{Axes: Axes{Benchmarks: []string{"UTS"},
			Scales: Axis{Dist: &DistSpec{Dist: "kumaraswamy", A: -1, B: 1, N: 3, Min: 0.01, Max: 0.05}}}}, "positive"},
		// max-min overflows to +Inf, so every draw is non-finite.
		{"overflowing range", SweepSpec{Axes: Axes{Benchmarks: []string{"UTS"},
			Scales: Axis{Dist: &DistSpec{Dist: "kumaraswamy", A: 2, B: 3, N: 2, Min: -1e308, Max: 1e308}}}}, "invalid spec: scale must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tc.sweep.Expand()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestExpandNonRunExperiment(t *testing.T) {
	// A benchmarks axis on a non-"run" experiment would be silently
	// meaningless — reject it like any other spec mistake.
	bad := SweepSpec{
		Experiment: "table1",
		Axes: Axes{
			Benchmarks: []string{"UTS", "SOR-irt"},
			Seeds:      Axis{Values: []float64{1, 2}},
		},
	}
	if _, _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), "ignores benchmarks") {
		t.Errorf("benchmarks axis on table1: err = %v, want rejection", err)
	}
	sweep := SweepSpec{
		Experiment: "table1",
		Axes:       Axes{Seeds: Axis{Values: []float64{1, 2}}},
	}
	specs, _, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded %d specs, want 2", len(specs))
	}
	for _, s := range specs {
		if s.Benchmark != "" || s.Experiment != "table1" {
			t.Errorf("spec = %+v, want table1 with no benchmark", s)
		}
	}
}

func TestAxisJSONRoundTrip(t *testing.T) {
	spec, err := ParseSweepSpec([]byte(`{
		"name": "rt",
		"axes": {
			"benchmarks": ["UTS"],
			"tinv_sec": [0.01, 0.04],
			"scales": {"dist": "kumaraswamy", "a": 2, "b": 5, "n": 3, "seed": 11, "min": 0.01, "max": 0.03}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Axes.TinvSec.Values; !reflect.DeepEqual(got, []float64{0.01, 0.04}) {
		t.Errorf("tinv values = %v", got)
	}
	if spec.Axes.Scales.Dist == nil || spec.Axes.Scales.Dist.N != 3 {
		t.Errorf("scales dist = %+v, want kumaraswamy n=3", spec.Axes.Scales.Dist)
	}
	specs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*3 {
		t.Errorf("expanded %d specs, want 6", len(specs))
	}
}
