package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite digests.json from the current request streams")

// TestStreamDigests pins the first requests of every workload's stream at
// the reference seed: the same seed must keep giving the same inputs.
func TestStreamDigests(t *testing.T) {
	if *update {
		all := make(map[string][]string)
		for _, w := range Workloads {
			all[w.Name] = StreamDigests(w)
		}
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range Workloads {
		bad, err := CheckDigests(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Error(b)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON lints BENCHMARK.json and holds it to the metric and
// workload tables the harness reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(Workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness (want 2–8, equal)", n, len(Workloads))
	}
	workloads := map[string]bool{"all": true}
	for i, w := range b.Workloads {
		checkName(w.Name)
		workloads[w.Name] = true
		if i < len(Workloads) && (Workloads[i].Name != w.Name || Workloads[i].Why != w.Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, Workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(EndToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(EndToEnd))
	}
	endToEnd := make(map[string]bool)
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		endToEnd[m.Name] = true
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %g", m.Name, m.Unit, m.Bound)
		}
		if i < len(EndToEnd) && (EndToEnd[i].Name != m.Name || EndToEnd[i].Unit != m.Unit ||
			EndToEnd[i].Better != m.Better || EndToEnd[i].Bound != m.Bound) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, EndToEnd[i])
		}
	}
	if !endToEnd["setup_s"] {
		t.Error("setup_s is missing")
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(PerLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if i < len(PerLayer) {
			h := PerLayer[i]
			if h.Name != m.Name || h.Unit != m.Unit || h.Better != m.Better {
				t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, h)
			}
			if !(endToEnd[h.Moves] || h.Moves == "failed") || !workloads[h.On] {
				t.Errorf("%s: should move %q on %q, which BENCHMARK.json does not define", h.Name, h.Moves, h.On)
			}
		}
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "internal/benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "internal/benchmark/run.sh" {
		t.Errorf("command %q, want bash internal/benchmark/run.sh", b.Command)
	}
}

// TestSmoke runs every workload, per layer, with one-second windows: each
// BENCHMARK.json metric must come out finite with its unit, no request may
// fail, and each workload must stress the layer it claims to.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cfserve processes")
	}
	bin := filepath.Join(t.TempDir(), "cfserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/cfserve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build cfserve: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(ctx, w, Options{
				Server: bin, Dir: filepath.Join(t.TempDir(), "run"), Seed: 1,
				Window: time.Second, Warmup: 100 * time.Millisecond, TracedWindow: 500 * time.Millisecond,
				Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			got := func(name string) float64 { return res.Metrics[name].Value }
			for _, m := range PerLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s: %+v (present %v)", m.Name, v, ok)
				}
			}
			for _, m := range EndToEnd {
				if v := res.Detail[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s: %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			if gap := res.Detail["attribution_gap_frac"].Value; gap > 0.05 {
				t.Errorf("span self times plus unattributed time miss the median request's latency by %.1f%%", gap*100)
			}
			switch w.Name {
			case "cold-novel":
				if got("service.lru_hit_ratio")+got("service.disk_hit_ratio") != 0 || got("governor.explore_quanta_per_run") <= 0 {
					t.Errorf("cache hits %g/%g, explore quanta per run %g: want no hits and a working daemon",
						got("service.lru_hit_ratio"), got("service.disk_hit_ratio"), got("governor.explore_quanta_per_run"))
				}
			case "memo-resume":
				if r := got("memo.prefix_hit_ratio"); r < 0.95 {
					t.Errorf("memo.prefix_hit_ratio %g, want ≥ 0.95", r)
				}
			case "hot-zipf":
				if r := got("service.lru_hit_ratio"); got("service.exec_ratio") != 0 || r < 0.4 || r > 0.9 {
					t.Errorf("exec ratio %g, LRU hit ratio %g: want no executions and 0.4–0.9 LRU hits", got("service.exec_ratio"), r)
				}
			}
		})
	}
}

// TestCfvetClean holds the benchmark's own packages to the repository's
// static-analysis suite.
func TestCfvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module")
	}
	pkgs, err := lint.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		res, err := lint.RunPackage(pkg, lint.All())
		if err != nil {
			t.Fatalf("run %s: %v", pkg.Path, err)
		}
		for _, d := range res.Diagnostics {
			t.Errorf("finding: %s", d)
		}
	}
}
