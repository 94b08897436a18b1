package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// validBase is a well-formed two-phase definition the adversarial cases
// mutate one knob at a time.
func validBase() Definition {
	return Definition{
		Name:          "adversarial-base",
		Decomposition: WorkSharing,
		Iterations:    2,
		Phases: []PhaseDef{
			{Name: "a", Instructions: 2e9, MissPerInstr: 0.01, IPC: 1.5},
			{Name: "b", Instructions: 1e9, MissPerInstr: 0.05, IPC: 0.9, RemoteFrac: 0.3},
		},
	}
}

// TestValidateAdversarialInputs is the guard the scenario fuzzer leans
// on: every malformed definition the generator could conceivably emit —
// zero phases, negative or non-finite durations, out-of-range fractions,
// unknown decompositions — must be rejected with an ErrBadDefinition
// error naming the offending knob, never accepted or passed through as
// NaN into the simulator.
func TestValidateAdversarialInputs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Definition)
		want   string // substring the error must mention
	}{
		{"zero phases", func(d *Definition) { d.Phases = nil }, "at least one phase"},
		{"empty phase slice", func(d *Definition) { d.Phases = []PhaseDef{} }, "at least one phase"},
		{"unknown decomposition", func(d *Definition) { d.Decomposition = "map-reduce" }, "decomposition"},
		{"negative iterations", func(d *Definition) { d.Iterations = -3 }, "iterations"},
		{"negative instructions", func(d *Definition) { d.Phases[1].Instructions = -1e9 }, "instructions"},
		{"NaN instructions", func(d *Definition) { d.Phases[0].Instructions = math.NaN() }, "instructions"},
		{"infinite instructions", func(d *Definition) { d.Phases[0].Instructions = math.Inf(1) }, "instructions"},
		{"negative ipc", func(d *Definition) { d.Phases[0].IPC = -2 }, "ipc"},
		{"NaN ipc", func(d *Definition) { d.Phases[1].IPC = math.NaN() }, "ipc"},
		{"negative miss density", func(d *Definition) { d.Phases[0].MissPerInstr = -0.01 }, "miss_per_instr"},
		{"NaN miss density", func(d *Definition) { d.Phases[0].MissPerInstr = math.NaN() }, "miss_per_instr"},
		{"exposure below range", func(d *Definition) { d.Phases[0].Exposure = ptr(-0.2) }, "exposure"},
		{"exposure above range", func(d *Definition) { d.Phases[0].Exposure = ptr(1.01) }, "exposure"},
		{"NaN exposure", func(d *Definition) { d.Phases[0].Exposure = ptr(math.NaN()) }, "exposure"},
		{"remote_frac above range", func(d *Definition) { d.Phases[1].RemoteFrac = 1.5 }, "remote_frac"},
		{"NaN remote_frac", func(d *Definition) { d.Phases[1].RemoteFrac = math.NaN() }, "remote_frac"},
		{"negative chunks", func(d *Definition) { d.Phases[0].ChunksPerCore = -4 }, "chunks_per_core"},
		{"jitter_frac at 1", func(d *Definition) { d.Phases[0].JitterFrac = 1 }, "jitter_frac"},
		{"NaN jitter_frac", func(d *Definition) { d.Phases[0].JitterFrac = math.NaN() }, "jitter_frac"},
		{"negative miss_jitter", func(d *Definition) { d.Phases[0].MissJitter = -0.1 }, "miss_jitter"},
		{"NaN miss_jitter", func(d *Definition) { d.Phases[0].MissJitter = math.NaN() }, "miss_jitter"},
		{"negative repeat", func(d *Definition) { d.Phases[1].Repeat = -2 }, "repeat"},
	}
	for _, tc := range cases {
		d := validBase()
		tc.mutate(&d)
		err := d.Normalized().Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadDefinition) {
			t.Errorf("%s: error %v does not wrap ErrBadDefinition", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := validBase().Normalized().Validate(); err != nil {
		t.Fatalf("well-formed base rejected: %v", err)
	}
}

// TestValidateLabelsPhasesOnlyOnError: a valid definition validates
// without allocating, and a phase error names the phase by index and,
// when it has one, by name, in the exact wording clients have seen.
func TestValidateLabelsPhasesOnlyOnError(t *testing.T) {
	d := validBase().Normalized()
	if n := testing.AllocsPerRun(100, func() {
		if d.Validate() != nil {
			t.Fatal("well-formed base rejected")
		}
	}); n != 0 {
		t.Errorf("validating a well-formed definition allocated %v times, want 0", n)
	}
	d.Phases[1].Repeat = -2
	const named = "scenario: invalid definition: phase 1 (b): repeat must be positive, got -2"
	if err := d.Validate(); err == nil || err.Error() != named {
		t.Errorf("err = %v, want %q", err, named)
	}
	d.Phases[1].Name = ""
	const unnamed = "scenario: invalid definition: phase 1: repeat must be positive, got -2"
	if err := d.Validate(); err == nil || err.Error() != unnamed {
		t.Errorf("err = %v, want %q", err, unnamed)
	}
}

// TestValidateRejectsUnnormalizedZeroes pins that Validate is strict on
// the raw (un-normalized) form too: zero iterations / chunks / repeat are
// "unset" only to Normalized — handing Validate a definition that skipped
// normalization must fail, not silently treat zeroes as defaults.
func TestValidateRejectsUnnormalizedZeroes(t *testing.T) {
	d := validBase()
	d.Iterations = 0
	if err := d.Validate(); err == nil {
		t.Error("zero iterations accepted without normalization")
	}
	d = validBase()
	d.Phases[0].ChunksPerCore = 0
	if err := d.Validate(); err == nil {
		t.Error("zero chunks_per_core accepted without normalization")
	}
	d = validBase()
	d.Phases[0].Repeat = 0
	if err := d.Validate(); err == nil {
		t.Error("zero repeat accepted without normalization")
	}
}

// TestNormalizedIsIdempotent: Normalized∘Normalized must be Normalized —
// the generator normalizes once and hashes the result, so a second pass
// changing anything would split one scenario across two content hashes.
func TestNormalizedIsIdempotent(t *testing.T) {
	d := validBase()
	d.Phases[0].Exposure = ptr(0.25)
	once := d.Normalized()
	twice := once.Normalized()
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("Normalized not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

// TestDefinitionJSONRoundTrip: Marshal → ParseDefinition → Normalized is
// the identity on normalized definitions, including the explicit-zero
// exposure that distinguishes "perfectly prefetched" from "unset". The
// fuzzer's corpus persistence depends on this round trip being lossless.
func TestDefinitionJSONRoundTrip(t *testing.T) {
	d := validBase()
	d.Phases[0].Exposure = ptr(0.0) // prefetched, not unset
	d.Phases[1].MissJitter = 0.004
	norm := d.Normalized()
	raw, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDefinition(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Normalized(); !reflect.DeepEqual(got, norm) {
		t.Errorf("round trip changed the definition:\nbefore: %+v\nafter:  %+v", norm, got)
	}
}
