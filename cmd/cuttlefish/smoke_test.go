package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/timeline"
)

// End-to-end tests of the whole command: each drives cli with real
// arguments, so flag parsing, the backend pool, the service and the
// renderer all run exactly as they do from a shell.

// cliRun runs the command and returns what it printed, failing the test
// on a nonzero exit status.
func cliRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := cli(args, &out, &errb); code != 0 {
		t.Fatalf("cuttlefish %s: exit %d\n%s", strings.Join(args, " "), code, errb.String())
	}
	return out.String(), errb.String()
}

// newServer starts a cfserve equivalent — the service's HTTP handler over
// a fresh in-process service — and returns its base URL.
func newServer(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL
}

// requireJSON fails the test unless s is one JSON document.
func requireJSON(t *testing.T, what, s string) {
	t.Helper()
	if !json.Valid([]byte(s)) {
		t.Errorf("%s is not valid JSON:\n%.300s", what, s)
	}
}

// TestScenarioLocalRemoteAndSweepAgree: a workload defined only in JSON
// prints identical report bytes in-process and through a server (miss,
// then hit), and a sweep whose base embeds the same definition resolves
// to the same content address, so the server serves it from cache.
func TestScenarioLocalRemoteAndSweepAgree(t *testing.T) {
	url := newServer(t)
	scen := filepath.Join("..", "..", "examples", "scenarios", "bursty.json")
	args := []string{"run", "-scenario", scen, "-scale", "0.02", "-reps", "1", "-format", "json"}
	local, _ := cliRun(t, args...)
	remote1, log1 := cliRun(t, append([]string{"-remote", url}, args...)...)
	remote2, log2 := cliRun(t, append([]string{"-remote", url}, args...)...)
	if !strings.Contains(log1, "(miss)") || !strings.Contains(log2, "(hit)") {
		t.Errorf("remote outcomes: %q then %q, want (miss) then (hit)", log1, log2)
	}
	if local != remote1 || remote1 != remote2 {
		t.Error("local, remote miss and remote hit printed different report bytes")
	}
	requireJSON(t, "local report", local)

	raw, err := os.ReadFile(scen)
	if err != nil {
		t.Fatal(err)
	}
	sweep := `{"name": "scen-smoke", "base": {"scenario_def": ` + string(raw) +
		`, "scale": 0.02, "reps": 1}, "axes": {"governors": ["default"]}}`
	sweepFile := filepath.Join(t.TempDir(), "scen-sweep.json")
	if err := os.WriteFile(sweepFile, []byte(sweep), 0o644); err != nil {
		t.Fatal(err)
	}
	out, log := cliRun(t, "sweep", "-spec", sweepFile, "-backend", url, "-format", "json")
	if !strings.Contains(log, "executed: 0,") || !strings.Contains(log, "cache hits: 1") {
		t.Errorf("sweep of the same definition was not served from cache:\n%s", log)
	}
	requireJSON(t, "sweep report", out)

	out, _ = cliRun(t, "run", "-bench", "bursty", "-scale", "0.005", "-reps", "1", "-format", "json")
	requireJSON(t, "synthetic run report", out)
	if out, _ := cliRun(t, "-list-scenarios"); !strings.Contains(out, "corun-mix") {
		t.Errorf("-list-scenarios omits corun-mix:\n%s", out)
	}
	resp, err := http.Get(url + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct{ Scenarios []scenario.Info }
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range listing.Scenarios {
		names[s.Name] = true
	}
	if !names["bursty"] || !names["Heat-irt"] {
		t.Errorf("GET /v1/scenarios = %v, want bursty and Heat-irt", names)
	}
}

// memoLine parses the CLI's "cuttlefish: memo: k=v ..." stderr line.
func memoLine(t *testing.T, stderr string) map[string]int {
	t.Helper()
	m := regexp.MustCompile(`cuttlefish: memo: (.*)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no memo line on stderr:\n%s", stderr)
	}
	kv := map[string]int{}
	for _, f := range strings.Fields(m[1]) {
		k, v, _ := strings.Cut(f, "=")
		kv[k], _ = strconv.Atoi(v)
	}
	return kv
}

// TestMemoDirResumesByteIdentical: a memoized re-run resumes from its
// stored prefix while printing the bytes a plain run prints, and a
// variant with an edited final phase still resumes from the shared
// prefix and matches its own plain run.
func TestMemoDirResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	phases := []scenario.PhaseDef{
		{Name: "p0", Instructions: 4e11, MissPerInstr: 0.001, IPC: 2.0, RemoteFrac: 0.1},
		{Name: "p1", Instructions: 4e11, MissPerInstr: 0.05, IPC: 1.2, RemoteFrac: 0.1},
		{Name: "p2", Instructions: 4e11, MissPerInstr: 0.002, IPC: 1.8, RemoteFrac: 0.1},
		{Name: "p3", Instructions: 4e11, MissPerInstr: 0.08, IPC: 0.9, RemoteFrac: 0.1},
	}
	write := func(name string, phases []scenario.PhaseDef) string {
		def := scenario.Definition{Name: "memo-smoke", Decomposition: "work-sharing", Iterations: 1, Phases: phases}
		raw, err := json.Marshal(def)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scenA := write("scenA.json", phases)
	tail := append([]scenario.PhaseDef(nil), phases...)
	tail[3].RemoteFrac = 0.4
	scenB := write("scenB.json", tail)

	memoDir := filepath.Join(dir, "memo")
	runArgs := func(scen string, extra ...string) []string {
		return append([]string{"run", "-scenario", scen, "-scale", "0.05", "-reps", "1", "-format", "json"}, extra...)
	}
	plain, _ := cliRun(t, runArgs(scenA)...)
	cold, _ := cliRun(t, runArgs(scenA, "-memo-dir", memoDir)...)
	warm, warmLog := cliRun(t, runArgs(scenA, "-memo-dir", memoDir)...)
	if cold != plain || warm != plain {
		t.Error("memoized runs printed different bytes than the plain run")
	}
	if m := memoLine(t, warmLog); m["prefix_hits"] != 1 || m["quanta_saved"] <= 0 {
		t.Errorf("warm run did not resume: %v", m)
	}

	plainB, _ := cliRun(t, runArgs(scenB)...)
	tweakB, tweakLog := cliRun(t, runArgs(scenB, "-memo-dir", memoDir)...)
	if tweakB != plainB {
		t.Error("tail-edited memoized run differs from its plain run")
	}
	if m := memoLine(t, tweakLog); m["prefix_hits"] != 1 {
		t.Errorf("tail-edited run did not resume from the shared prefix: %v", m)
	}
}

// TestTimelineOutDeterministic: two -timeline-out runs of one spec write
// identical documents, the recorder leaves the report bytes alone, and
// the document regenerates the committed examples/timelines/run-bursty.json
// byte for byte.
func TestTimelineOutDeterministic(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-governor", "cuttlefish", "run", "-bench", "bursty", "-warmup=-1", "-scale", "0.02", "-reps", "2", "-format", "json"}
	tl1, tl2 := filepath.Join(dir, "tl1.json"), filepath.Join(dir, "tl2.json")
	run1, _ := cliRun(t, append(args, "-timeline-out", tl1)...)
	run2, _ := cliRun(t, append(args, "-timeline-out", tl2)...)
	run0, _ := cliRun(t, args...)
	if run1 != run2 || run0 != run1 {
		t.Error("arming the recorder changed the report bytes")
	}
	doc1, err := os.ReadFile(tl1)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := os.ReadFile(tl2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc1, doc2) {
		t.Error("two runs of one spec wrote different timelines")
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "examples", "timelines", "run-bursty.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc1, committed) {
		t.Error("examples/timelines/run-bursty.json no longer regenerates byte for byte")
	}

	var ex timeline.Export
	if err := json.Unmarshal(doc1, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Version != 1 || ex.ID == "" || len(ex.Lanes) != 2 {
		t.Fatalf("document: version %d id %q lanes %d, want 1, an id and 2 lanes", ex.Version, ex.ID, len(ex.Lanes))
	}
	for _, ln := range ex.Lanes {
		ts := make([]float64, len(ln.Samples))
		for i, s := range ln.Samples {
			ts[i] = s.T
			if len(s.Cores) == 0 || s.SumCoreGHz <= 0 || s.EnergyJ < 0 {
				t.Errorf("lane %s: sample lacks machine state: %+v", ln.Lane, s)
			}
		}
		if len(ts) < 2 || !sort.Float64sAreSorted(ts) {
			t.Errorf("lane %s: boundary samples missing or out of order: %v", ln.Lane, ts)
		}
		kinds := map[string]bool{}
		for _, e := range ln.Events {
			kinds[e.Kind] = true
		}
		if !kinds[timeline.KindAttach] || !kinds[timeline.KindExplore] {
			t.Errorf("lane %s: events %v lack attach and explore", ln.Lane, kinds)
		}
	}
	if c := ex.Convergence; c.Runs != 2 || c.ExplorationQuanta <= 0 {
		t.Errorf("convergence = %+v, want 2 runs with exploration", c)
	}
}

// TestTraceOutHoldsServiceSpanTree: a local -trace-out file is the
// in-process service's span tree for the run, with the flight
// recorder's counter tracks folded in when -timeline-out is set too.
func TestTraceOutHoldsServiceSpanTree(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	cliRun(t, "run", "-bench", "bursty", "-scale", "0.02", "-reps", "1",
		"-trace-out", trace, "-timeline-out", filepath.Join(dir, "tl.json"))
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"request", "admission", "cache_probe", "queue_wait", "execute",
		"rep-0", "simulate", "report_encode", "rep-0/uncore_ratio", "rep-0/energy_j"} {
		if !names[want] {
			t.Errorf("trace lacks %q", want)
		}
	}
}

// TestFuzzPassDeterministic: generative passes print identical findings
// across invocations and host parallelism, and a corpus replay prints a
// decodable report.
func TestFuzzPassDeterministic(t *testing.T) {
	args := []string{"fuzz", "-n", "50", "-seed", "7", "-format", "json"}
	pass1, _ := cliRun(t, args...)
	pass2, _ := cliRun(t, args...)
	pass3, _ := cliRun(t, append(args, "-workers", "2")...)
	if pass1 != pass2 {
		t.Error("two fuzz passes printed different bytes")
	}
	if pass1 != pass3 {
		t.Error("-workers 2 changed the fuzz report")
	}
	requireJSON(t, "fuzz report", pass1)
	replay, _ := cliRun(t, "fuzz", "-replay", filepath.Join("..", "..", "internal", "fuzz", "testdata", "corpus"), "-format", "json")
	if _, err := report.Decode([]byte(replay)); err != nil {
		t.Errorf("corpus replay report: %v", err)
	}
}

// TestRecordingFlagsRecordOneExperiment: -trace-out and -timeline-out
// name one file, so all (and sweep and fuzz, which run many specs) reject
// them before anything runs instead of overwriting the file per
// experiment.
func TestRecordingFlagsRecordOneExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	for _, args := range [][]string{
		{"all", "-scale", "0.01", "-reps", "1", "-timeline-out", out},
		{"all", "-scale", "0.01", "-reps", "1", "-trace-out", out},
		{"fuzz", "-n", "1", "-timeline-out", out},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "one experiment at a time") {
			t.Errorf("%v: exit %d, stderr %q; want a rejection", args, code, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: ran before rejecting:\n%.200s", args, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v: wrote %s", args, out)
		}
	}
}
