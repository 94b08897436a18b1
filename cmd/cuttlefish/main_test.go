package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

func tinySpec() service.RunSpec {
	s := defaultSpec()
	s.Scale = 0.02
	s.Reps = 1
	return s
}

// runReport runs one experiment through the CLI path with -format json
// and decodes the exact bytes it prints.
func runReport(t *testing.T, name string, spec service.RunSpec) *report.RunReport {
	t.Helper()
	var out bytes.Buffer
	if err := run(name, spec, "json", &out, io.Discard); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := report.Decode(out.Bytes())
	if err != nil {
		t.Fatalf("%s: -format json printed an undecodable report: %v", name, err)
	}
	return rep
}

// TestRunRejectsUnknownGovernor is the CLI-side registry check: a typo in
// -governor must fail fast, before any simulation runs.
func TestRunRejectsUnknownGovernor(t *testing.T) {
	s := tinySpec()
	s.Governor = "turbo-boost"
	if err := run("table1", s, "json", io.Discard, io.Discard); err == nil {
		t.Error("unknown -governor must error")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run("table9", tinySpec(), "text", io.Discard, io.Discard); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestTable1ReportEncodesAcrossGovernors backs the acceptance criterion:
// `cuttlefish [-governor=<name>] table1 -format json` must print valid JSON
// for every registered governor and without the flag. It decodes the exact
// bytes -format json prints with encoding/json.
func TestTable1ReportEncodesAcrossGovernors(t *testing.T) {
	for _, gov := range append([]string{""}, governor.Names()...) {
		s := tinySpec()
		s.Governor = gov
		var out bytes.Buffer
		if err := run("table1", s, "json", &out, io.Discard); err != nil {
			t.Fatalf("%q: %v", gov, err)
		}
		var got report.RunReport
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%q: -format json printed invalid JSON: %v", gov, err)
		}
		if dec.More() {
			t.Errorf("%q: trailing data after the report", gov)
		}
		if got.Experiment != "table1" {
			t.Errorf("%q: experiment = %q, want table1", gov, got.Experiment)
		}
		if gov != "" && got.Governor != gov {
			t.Errorf("report governor = %q, want %q", got.Governor, gov)
		}
		if len(got.Rows) != 10 {
			t.Errorf("%q: rows = %d, want 10", gov, len(got.Rows))
		}
		for i, row := range got.Rows {
			for _, col := range got.Columns {
				if _, ok := row[col]; !ok {
					t.Errorf("%q: row %d lacks column %q", gov, i, col)
				}
			}
		}
	}
}

// TestRunExperimentRequiresBench: the "run" experiment must fail fast
// without a -bench, before any simulation time.
func TestRunExperimentRequiresBench(t *testing.T) {
	if err := run("run", tinySpec(), "text", io.Discard, io.Discard); err == nil {
		t.Error("run without -bench must error")
	}
}

// TestSweepRequiresSpec: the sweep subcommand must fail fast without a
// -spec file, and on an unreadable or invalid one.
func TestSweepRequiresSpec(t *testing.T) {
	sweepSpec = ""
	if err := run("sweep", tinySpec(), "text", io.Discard, io.Discard); err == nil {
		t.Error("sweep without -spec must error")
	}
	sweepSpec = filepath.Join(t.TempDir(), "nope.json")
	if err := run("sweep", tinySpec(), "text", io.Discard, io.Discard); err == nil {
		t.Error("sweep with a missing spec file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"axes": {"benchmarcks": []}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sweepSpec = bad
	defer func() { sweepSpec = "" }()
	if err := run("sweep", tinySpec(), "text", io.Discard, io.Discard); err == nil {
		t.Error("sweep with a typoed axis must error")
	}
}

// TestSweepInProcessEndToEnd drives a tiny real sweep through the CLI
// path: in-process backend, persistent store, warm re-run from disk.
func TestSweepInProcessEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "sweep.json")
	spec := `{
		"name": "cli-test",
		"axes": {
			"benchmarks": ["UTS"],
			"governors": ["default", "cuttlefish"],
			"scales": [0.02],
			"reps": [1]
		}
	}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sweepSpec = specFile
	storeDir = filepath.Join(dir, "store")
	defer func() { sweepSpec, storeDir = "", "" }()
	if err := run("sweep", tinySpec(), "json", io.Discard, io.Discard); err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	// Warm re-run: everything must come from the persistent store.
	if err := run("sweep", tinySpec(), "json", io.Discard, io.Discard); err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	st, err := store.Open(storeDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 (one per grid point)", st.Len())
	}
}

// parseForTest runs the CLI's parse on a fresh flag set, returning the
// experiment and the spec the flags built.
func parseForTest(t *testing.T, args ...string) (name string, spec service.RunSpec, err error) {
	t.Helper()
	spec = defaultSpec()
	fs := newFlagSet(&spec)
	t.Cleanup(func() { newFlagSet(&service.RunSpec{}) })
	name, err = parseArgs(fs, args)
	return name, spec, err
}

// TestFlagsAcceptedBeforeAndAfterSubcommand is the regression test for
// the two-stage parsing fix: `cuttlefish -seed 7 run -bench X` and
// `cuttlefish run -seed 7 -bench X` must parse identically.
func TestFlagsAcceptedBeforeAndAfterSubcommand(t *testing.T) {
	cases := [][]string{
		{"-seed", "7", "run", "-bench", "UTS"},
		{"run", "-seed", "7", "-bench", "UTS"},
		{"-bench", "UTS", "-seed", "7", "run"},
		{"run", "-seed", "7", "-bench", "UTS", "-format", "text"},
	}
	for _, args := range cases {
		name, spec, err := parseForTest(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if name != "run" || spec.Benchmark != "UTS" || spec.Seed != 7 {
			t.Errorf("%v: name=%q bench=%q seed=%d, want run/UTS/7", args, name, spec.Benchmark, spec.Seed)
		}
	}
}

// TestFlagErrorsNameTheFlag: a bad flag fails with an error naming it,
// whether it appears before or after the subcommand (the old second
// parse exited without any message of its own).
func TestFlagErrorsNameTheFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sed", "7", "run"}, "-sed"},
		{[]string{"run", "-sed", "7"}, "-sed"},
		{[]string{"-seed", "7", "run", "-sed", "9"}, "-sed"},
		// The engine has no knobs left; its former flags are gone.
		{[]string{"run", "-bench", "UTS", "-simworkers", "2"}, "-simworkers"},
		{[]string{"run", "-bench", "UTS", "-batch", "8"}, "-batch"},
	} {
		_, _, err := parseForTest(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%v: err = %v, want the offending flag named", c.args, err)
		}
	}
	if _, _, err := parseForTest(t, "run", "UTS"); err == nil ||
		!strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("second positional: err = %v, want unexpected-argument", err)
	}
}

// TestRunScenarioFile drives a JSON-only scenario through the CLI run
// path: parse, submit, one report row named after the definition.
func TestRunScenarioFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "probe.json")
	def := `{
		"name": "cli-probe",
		"iterations": 2,
		"phases": [{"instructions": 1e9, "miss_per_instr": 0.02, "ipc": 1.5, "jitter_frac": 0.05}]
	}`
	if err := os.WriteFile(file, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarioFile = file
	defer func() { scenarioFile = "" }()
	s := tinySpec()
	rep := runReport(t, "run", s)
	if len(rep.Rows) != 1 || rep.Rows[0]["benchmark"] != "cli-probe" {
		t.Errorf("rows = %+v", rep.Rows)
	}
	// -scenario is run-only and exclusive with -bench.
	if err := run("table1", s, "text", io.Discard, io.Discard); err == nil {
		t.Error("-scenario with table1 must error")
	}
	s.Benchmark = "UTS"
	if err := run("run", s, "text", io.Discard, io.Discard); err == nil {
		t.Error("-bench with -scenario must error")
	}
}

// TestRunRegisteredScenarioByName: -bench accepts registry names beyond
// Table 1, so synthetic scenarios run through the same subcommand.
func TestRunRegisteredScenarioByName(t *testing.T) {
	s := tinySpec()
	s.Benchmark = "compute-bound"
	s.Scale = 0.005
	rep := runReport(t, "run", s)
	if len(rep.Rows) != 1 || rep.Rows[0]["benchmark"] != "compute-bound" {
		t.Errorf("rows = %+v", rep.Rows)
	}
}

// TestRunExperimentReport drives the single-benchmark experiment behind
// POST /v1/runs through the CLI's run path.
func TestRunExperimentReport(t *testing.T) {
	s := tinySpec()
	s.Benchmark = "Heat-irt"
	s.Reps = 2
	rep := runReport(t, "run", s)
	if rep.Experiment != "run" || rep.Governor != "default" {
		t.Errorf("experiment=%q governor=%q", rep.Experiment, rep.Governor)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want one per rep", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row["benchmark"] != "Heat-irt" || row["rep"] != float64(i) {
			t.Errorf("row %d = %v", i, row)
		}
		if s, ok := row["seconds"].(float64); !ok || s <= 0 {
			t.Errorf("row %d seconds = %v", i, row["seconds"])
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil || !json.Valid(raw) {
		t.Errorf("marshal: %v", err)
	}
}
