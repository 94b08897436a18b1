package fuzz

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
)

// stubExecutor is a canned pure-function-of-spec executor with a fixed
// governor ordering: cuttlefish burns more energy and runs longer than
// the references (inversion + slowdown), powersave finishes faster than
// default (anomaly), and ddcm always fails (error). It makes every
// analyze invariant fire deterministically without running simulations.
func stubExecutor(_ context.Context, spec service.RunSpec) (*report.RunReport, error) {
	if spec.Governor == governor.DDCM {
		return nil, fmt.Errorf("stub: ddcm refused")
	}
	seconds, joules := 10.0, 100.0
	switch spec.Governor {
	case governor.Cuttlefish:
		seconds, joules = 14.0, 150.0
	case governor.Powersave:
		seconds = 5.0
	}
	rep := report.New("run",
		experiments.RunColBenchmark, experiments.RunColGovernor, experiments.RunColRep,
		experiments.RunColSeconds, experiments.RunColJoules)
	for rep0 := 0; rep0 < spec.Reps; rep0++ {
		rep.AddRow(spec.ScenarioDef.Name, spec.Governor, rep0, seconds, joules)
	}
	return rep, nil
}

func stubBackend(t *testing.T) orchestrator.Backend {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64, Executor: stubExecutor})
	t.Cleanup(svc.Close)
	return &orchestrator.LocalBackend{Service: svc, Label: "stub"}
}

func TestGenerateIsBitDeterministic(t *testing.T) {
	cfg := Config{N: 200, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same (N, seed) produced different corpus digests:\n%s\n%s", a.Digest(), b.Digest())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (N, seed) produced structurally different corpora")
	}
	c, err := Generate(Config{N: 200, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced the same corpus digest")
	}
}

func TestGenerateCoversTheScenarioSpace(t *testing.T) {
	c, err := Generate(Config{N: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Entries)+c.Duplicates != c.Requested {
		t.Fatalf("entries(%d) + duplicates(%d) != requested(%d)", len(c.Entries), c.Duplicates, c.Requested)
	}
	decomp := map[string]int{}
	exposure := map[string]int{} // full (normalized default) / zero / fractional
	multiPhase := 0
	for _, e := range c.Entries {
		if err := e.Def.Validate(); err != nil {
			t.Fatalf("generated scenario %s invalid: %v", e.Def.Name, err)
		}
		decomp[e.Def.Decomposition]++
		if len(e.Def.Phases) > 1 {
			multiPhase++
		}
		for _, p := range e.Def.Phases {
			switch {
			case p.Exposure != nil && *p.Exposure == 1:
				exposure["full"]++
			case p.Exposure != nil && *p.Exposure == 0:
				exposure["zero"]++
			default:
				exposure["fractional"]++
			}
		}
		if e.Seed <= 0 {
			t.Fatalf("scenario %s has non-positive run seed %d", e.Def.Name, e.Seed)
		}
	}
	if decomp[scenario.WorkSharing] == 0 || decomp[scenario.TaskDAG] == 0 {
		t.Fatalf("corpus misses a decomposition mode: %v", decomp)
	}
	for _, k := range []string{"full", "zero", "fractional"} {
		if exposure[k] == 0 {
			t.Fatalf("corpus never drew exposure case %q: %v", k, exposure)
		}
	}
	if multiPhase == 0 {
		t.Fatal("corpus has no multi-phase scenarios")
	}
}

func TestGeneratedNamesAreContentDerived(t *testing.T) {
	c, err := Generate(Config{N: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries {
		sum := defDigest(e.Def)
		if want := fmt.Sprintf("fuzz-%x", sum[:6]); e.Def.Name != want {
			t.Fatalf("name %q is not content-derived (want %q)", e.Def.Name, want)
		}
		if e.Seed != seedFromDef(e.Def) {
			t.Fatalf("scenario %s run seed is not content-derived", e.Def.Name)
		}
	}
}

func TestDifferentialRunFindsCannedInvariants(t *testing.T) {
	corpus, err := Generate(Config{N: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 6, Seed: 11, Workers: 4}
	be := stubBackend(t)
	rep, err := Run(context.Background(), []orchestrator.Backend{be}, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorpusDigest != corpus.Digest() {
		t.Fatal("report does not carry the corpus digest")
	}
	wantCells := len(corpus.Entries) * len(governor.Names())
	if len(rep.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), wantCells)
	}
	// Per scenario the stub guarantees: error (ddcm), inversion vs
	// default, inversion vs static, slowdown, anomaly.
	perKind := map[string]int{}
	for _, f := range rep.Findings {
		perKind[f.Kind]++
	}
	n := len(corpus.Entries)
	want := map[string]int{
		KindError:     n,
		KindInversion: 2 * n,
		KindSlowdown:  n,
		KindAnomaly:   n,
	}
	if !reflect.DeepEqual(perKind, want) {
		t.Fatalf("findings per kind = %v, want %v", perKind, want)
	}

	// The pass must be bit-deterministic: a second run over the same
	// corpus emits the identical findings digest and report bytes.
	rep2, err := Run(context.Background(), []orchestrator.Backend{stubBackend(t)}, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FindingsDigest() != rep2.FindingsDigest() {
		t.Fatal("two passes over the same corpus disagree on findings")
	}
	b1, err := rep.RunReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.RunReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two passes over the same corpus emit different report bytes")
	}
}

func TestBaselineDiff(t *testing.T) {
	corpus, err := Generate(Config{N: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 4, Seed: 5}
	rep, err := Run(context.Background(), []orchestrator.Backend{stubBackend(t)}, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := BaselineOf(rep, cfg)

	// Round-trip through disk, then a self-diff must be clean.
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	violations, resolved, err := Diff(loaded, rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 || len(resolved) != 0 {
		t.Fatalf("self-diff not clean: violations=%v resolved=%v", violations, resolved)
	}

	// A new finding and a metric regression must both surface.
	mutated := *rep
	mutated.Findings = append([]Finding(nil), rep.Findings...)
	extra := Finding{Scenario: "zz", Kind: KindAnomaly, Governor: "x", Reference: "y", Detail: "synthetic"}
	mutated.Findings = append(mutated.Findings, extra)
	mutated.Cells = append([]Cell(nil), rep.Cells...)
	for i, c := range mutated.Cells {
		if c.Err == "" {
			mutated.Cells[i].Joules = c.Joules * 1.5
			break
		}
	}
	violations, _, err = Diff(loaded, &mutated, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotNew, gotRegress bool
	for _, v := range violations {
		if v.Scenario == "zz" && strings.HasPrefix(v.Detail, "new vs baseline:") {
			gotNew = true
		}
		if v.Kind == KindRegression {
			gotRegress = true
		}
	}
	if !gotNew || !gotRegress {
		t.Fatalf("diff missed a violation class (new=%v regression=%v): %v", gotNew, gotRegress, violations)
	}

	// A resolved finding is reported but is not a violation.
	shrunk := *rep
	shrunk.Findings = rep.Findings[1:]
	violations, resolved, err = Diff(loaded, &shrunk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 || len(resolved) != 1 {
		t.Fatalf("resolved diff: violations=%d resolved=%d, want 0/1", len(violations), len(resolved))
	}

	// Corpus drift is an error, not a diff.
	drifted := *rep
	drifted.CorpusDigest = "deadbeef"
	if _, _, err := Diff(loaded, &drifted, cfg); err == nil {
		t.Fatal("corpus digest mismatch must be an error")
	}
}

// TestCommittedBaselineHolds regenerates the committed n=50, seed=7
// baseline through the real simulator, exactly as `cuttlefish fuzz -n 50
// -seed 7 -write-baseline` does, and requires the bytes to match the
// committed file. This is stricter than the tolerance-based Diff: any
// drift in a cell's metrics or in the findings fails, and an intended
// behaviour change must refresh the file in the same change.
func TestCommittedBaselineHolds(t *testing.T) {
	committed := filepath.Join("testdata", "baseline-n50-seed7.json")
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 50, Seed: 7}
	corpus, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{QueueDepth: 64})
	t.Cleanup(svc.Close)
	rep, err := Run(context.Background(), []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "baseline.json")
	if err := BaselineOf(rep, cfg).Save(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("regenerated baseline differs from %s; if the change is intended, refresh it with "+
			"`cuttlefish fuzz -n 50 -seed 7 -write-baseline %s`", committed, committed)
	}
}

func TestMinimizeShrinksWhileReproducing(t *testing.T) {
	corpus, err := Generate(Config{N: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var seedEntry Entry
	for _, e := range corpus.Entries {
		if len(e.Def.Phases) > 1 && e.Def.Iterations > 1 {
			seedEntry = e
			break
		}
	}
	if seedEntry.Def.Name == "" {
		t.Skip("no multi-phase multi-iteration entry in this corpus slice")
	}
	// The "bug" reproduces whenever any phase has MissPerInstr above the
	// corpus median — so minimization can strip iterations, sibling
	// phases and jitter but must keep at least one miss-heavy phase.
	trigger := 0.0
	for _, p := range seedEntry.Def.Phases {
		if p.MissPerInstr > trigger {
			trigger = p.MissPerInstr
		}
	}
	evals := 0
	run := func(_ context.Context, e Entry) ([]Finding, error) {
		evals++
		for _, p := range e.Def.Phases {
			if p.MissPerInstr >= trigger {
				return []Finding{{Scenario: e.Def.Name, Kind: KindInversion, Governor: governor.Cuttlefish, Reference: governor.Static, Detail: "stub"}}, nil
			}
		}
		return nil, nil
	}
	min, spent := Minimize(context.Background(), seedEntry, map[string]bool{KindInversion: true}, run, 200)
	if spent == 0 || spent != evals {
		t.Fatalf("spent=%d evals=%d", spent, evals)
	}
	fs, err := run(context.Background(), min)
	if err != nil || len(fs) == 0 {
		t.Fatalf("minimized entry no longer reproduces the finding: %v %v", fs, err)
	}
	if min.Def.Iterations != 1 {
		t.Fatalf("minimize left Iterations=%d", min.Def.Iterations)
	}
	if len(min.Def.Phases) != 1 {
		t.Fatalf("minimize left %d phases", len(min.Def.Phases))
	}
	if err := min.Def.Validate(); err != nil {
		t.Fatalf("minimized entry invalid: %v", err)
	}
	if min.Seed != seedFromDef(min.Def) {
		t.Fatal("minimized entry's seed was not re-derived from content")
	}
}

func TestCorpusEntryIO(t *testing.T) {
	c, err := Generate(Config{N: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, e := range c.Entries {
		e.Note = "io round trip"
		if err := WriteEntry(filepath.Join(dir, fmt.Sprintf("%02d.json", i)), e); err != nil {
			t.Fatal(err)
		}
	}
	back, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(c.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(back.Entries), len(c.Entries))
	}
	for i, e := range back.Entries {
		if !reflect.DeepEqual(e.Def, c.Entries[i].Def) || e.Seed != c.Entries[i].Seed {
			t.Fatalf("entry %d changed across the disk round trip", i)
		}
	}
	// Single-file load works too.
	one, err := LoadCorpus(filepath.Join(dir, "00.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Entries) != 1 {
		t.Fatalf("single-file load returned %d entries", len(one.Entries))
	}
	// A corrupt entry is an error, not a skip.
	if err := os.WriteFile(filepath.Join(dir, "99.json"), []byte(`{"def":{"phases":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("corrupt corpus entry must fail the load")
	}
}

// TestCorpusReplay runs every committed corpus scenario under every
// registered governor through the real simulator — the -race replay
// gate CI leans on. Committed entries must execute clean: no validation
// failures, no panics, no empty metrics.
func TestCorpusReplay(t *testing.T) {
	corpus, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	decomp := map[string]bool{}
	for _, e := range corpus.Entries {
		decomp[e.Def.Decomposition] = true
	}
	if !decomp[scenario.WorkSharing] || !decomp[scenario.TaskDAG] {
		t.Fatalf("committed corpus must cover both decomposition modes, has %v", decomp)
	}
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64})
	t.Cleanup(svc.Close)
	be := &orchestrator.LocalBackend{Service: svc, Label: "replay"}
	cfg := Config{Scale: 0.02, Cores: 4}
	rep, err := Run(context.Background(), []orchestrator.Backend{be}, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("replay %s/%s failed: %s", c.Scenario, c.Governor, c.Err)
			continue
		}
		if c.Seconds <= 0 || c.Joules <= 0 {
			t.Errorf("replay %s/%s produced empty metrics (%g s, %g J)", c.Scenario, c.Governor, c.Seconds, c.Joules)
		}
	}
}

// TestDifferentialRealExecutorSmoke runs a tiny generated corpus through
// the real simulator twice and demands identical findings — the
// library-level twin of cmd/cuttlefish's TestFuzzPassDeterministic.
func TestDifferentialRealExecutorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-executor differential pass in -short mode")
	}
	corpus, err := Generate(Config{N: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 3, Seed: 17, Scale: 0.02, Cores: 4}
	pass := func() *Report {
		svc := service.New(service.Config{Workers: 2, QueueDepth: 64})
		defer svc.Close()
		rep, err := Run(context.Background(), []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}, corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := pass(), pass()
	for _, c := range a.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed under the real executor: %s", c.Scenario, c.Governor, c.Err)
		}
	}
	if a.FindingsDigest() != b.FindingsDigest() {
		t.Fatal("two real-executor passes disagree on findings")
	}
	ba, err := a.RunReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.RunReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("two real-executor passes emit different report bytes")
	}
}

// TestWarmPassServedFromCache: a second differential pass over the same
// in-process service serves every cell from the result cache and finds
// exactly what the cold pass found — the cache is invisible in the
// findings.
func TestWarmPassServedFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("real-executor differential pass in -short mode")
	}
	cfg := Config{N: 50, Seed: 7}
	corpus, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The LRU must hold the whole cell grid, or the warm pass cycles it
	// back to misses (400 cells vs the 256-entry default).
	svc := service.New(service.Config{QueueDepth: 64, CacheEntries: 4096})
	t.Cleanup(svc.Close)
	pool := []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}
	cold, err := Run(context.Background(), pool, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), pool, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FindingsDigest() != warm.FindingsDigest() {
		t.Error("cold and warm passes disagree on findings")
	}
	for _, c := range warm.Cells {
		if c.Outcome != string(service.OutcomeHit) {
			t.Errorf("warm cell %s/%s was served %q, want a cache hit", c.Scenario, c.Governor, c.Outcome)
		}
	}
}
