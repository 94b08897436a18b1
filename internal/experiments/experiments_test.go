package experiments

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/tipi"
)

// testOptions shrink runs for CI while keeping them long enough for the
// daemon to converge on the frequent slabs.
func testOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.12
	o.Reps = 2
	return o
}

func mustSpec(t *testing.T, name string) bench.Spec {
	t.Helper()
	s, ok := bench.Get(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return s
}

func TestRunOneDefaultAndCuttlefish(t *testing.T) {
	o := testOptions()
	spec := mustSpec(t, "SOR-irt")
	def, err := RunOne(spec, governor.Default, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if def.Daemon != nil {
		t.Error("Default run must not carry a daemon")
	}
	if def.Seconds <= 0 || def.Joules <= 0 || def.EDP != def.Joules*def.Seconds {
		t.Errorf("implausible result %+v", def)
	}
	// Default's firmware parks a quiet uncore near 2.2 GHz (Table 2).
	if def.AvgUncoreGHz < 2.0 || def.AvgUncoreGHz > 2.5 {
		t.Errorf("SOR Default avg UF = %.2f GHz, want ≈ 2.2", def.AvgUncoreGHz)
	}
	cf, err := RunOne(spec, governor.Cuttlefish, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Daemon == nil || cf.Daemon.Samples() == 0 {
		t.Error("Cuttlefish run must carry an active daemon")
	}
}

func TestRunOneRejectsInvalidModelCombos(t *testing.T) {
	o := testOptions()
	o.Model = bench.HClib
	if _, err := RunOne(mustSpec(t, "AMG"), governor.Default, o, 1); err == nil {
		t.Error("AMG under HClib must fail (§5.2)")
	}
}

func TestCompareShape(t *testing.T) {
	o := testOptions()
	cmp, err := Compare([]string{"UTS", "Heat-irt"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(cmp.Rows))
	}
	uts, heat := cmp.Rows[0], cmp.Rows[1]

	// Memory-bound saves more than compute-bound under full Cuttlefish
	// (§5.1: 22-29% vs 8-10%).
	if heat.EnergySavings[governor.Cuttlefish].Mean <= uts.EnergySavings[governor.Cuttlefish].Mean {
		t.Errorf("Heat savings %.1f%% should exceed UTS %.1f%%",
			heat.EnergySavings[governor.Cuttlefish].Mean, uts.EnergySavings[governor.Cuttlefish].Mean)
	}
	// Cuttlefish-Core loses energy on compute-bound codes (§5.1).
	if uts.EnergySavings[governor.CuttlefishCore].Mean >= 0 {
		t.Errorf("UTS Cuttlefish-Core savings = %.1f%%, want negative", uts.EnergySavings[governor.CuttlefishCore].Mean)
	}
	// Slowdowns stay small.
	for _, row := range cmp.Rows {
		for _, p := range governor.CuttlefishVariants {
			if s := row.Slowdown[p].Mean; s > 20 {
				t.Errorf("%s/%s slowdown %.1f%% implausible", row.Bench, p, s)
			}
		}
	}
	// Geomeans must be populated for all policies.
	for _, p := range governor.CuttlefishVariants {
		if _, ok := cmp.GeoEnergySavings[p]; !ok {
			t.Errorf("missing geomean for %s", p)
		}
	}
}

func TestCompareUnknownBenchmark(t *testing.T) {
	if _, err := Compare([]string{"nope"}, testOptions()); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestTable1Census(t *testing.T) {
	o := testOptions()
	rows, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Seconds <= 0 || r.Distinct < 1 || r.Frequent < 1 {
			t.Errorf("%s: degenerate census row %+v", r.Name, r)
		}
		if r.Frequent > r.Distinct {
			t.Errorf("%s: frequent %d > distinct %d", r.Name, r.Frequent, r.Distinct)
		}
	}
	// AMG shows by far the most slabs (Table 1: 60 vs ≤ 17 elsewhere).
	if byName["AMG"].Distinct <= byName["Heat-irt"].Distinct {
		t.Errorf("AMG distinct slabs (%d) should exceed Heat-irt (%d)",
			byName["AMG"].Distinct, byName["Heat-irt"].Distinct)
	}
	// UTS sits in the lowest slab band.
	if byName["UTS"].TIPIMax > 0.008 {
		t.Errorf("UTS TIPI max %.4f, want ≤ 0.008", byName["UTS"].TIPIMax)
	}
}

func TestFig2Timelines(t *testing.T) {
	o := testOptions()
	recs, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(Fig2Benchmarks) {
		t.Fatalf("series = %d, want %d", len(recs), len(Fig2Benchmarks))
	}
	// §3.1: within an application JPI tracks TIPI — Heat's TIPI and JPI
	// both exceed UTS's.
	avg := func(name string) (tipi, jpi float64) {
		pts := recs[name]
		if len(pts) == 0 {
			t.Fatalf("%s: empty timeline", name)
		}
		for _, p := range pts {
			tipi += p.TIPI
			jpi += p.JPI
		}
		n := float64(len(pts))
		return tipi / n, jpi / n
	}
	utsT, utsJ := avg("UTS")
	heatT, heatJ := avg("Heat-irt")
	if heatT <= utsT || heatJ <= utsJ {
		t.Errorf("Heat (TIPI %.4f, JPI %.2g) should exceed UTS (TIPI %.4f, JPI %.2g)",
			heatT, heatJ, utsT, utsJ)
	}
}

// jpiAt finds the JPI of a benchmark's dominant frequent slab at a setting.
func jpiAt(t *testing.T, pts []Fig3Point, benchName string, setting freq.Ratio) float64 {
	t.Helper()
	bestShare, bestJPI := 0.0, 0.0
	for _, p := range pts {
		if p.Bench == benchName && p.Setting == setting && p.SharePct > bestShare {
			bestShare, bestJPI = p.SharePct, p.JPI
		}
	}
	if bestShare == 0 {
		t.Fatalf("no frequent slab for %s at %v", benchName, setting)
	}
	return bestJPI
}

func TestFig3aShape(t *testing.T) {
	o := testOptions()
	pts, err := Fig3a(o)
	if err != nil {
		t.Fatal(err)
	}
	// Compute-bound: JPI falls as CF rises. Memory-bound: the opposite.
	if jpiAt(t, pts, "UTS", 23) >= jpiAt(t, pts, "UTS", 12) {
		t.Error("UTS JPI should fall with rising CF (Fig. 3a)")
	}
	if jpiAt(t, pts, "Heat-irt", 12) >= jpiAt(t, pts, "Heat-irt", 23) {
		t.Error("Heat JPI should fall with falling CF (Fig. 3a)")
	}
}

func TestFig3bShape(t *testing.T) {
	o := testOptions()
	pts, err := Fig3b(o)
	if err != nil {
		t.Fatal(err)
	}
	// Compute-bound: JPI rises with UF.
	if jpiAt(t, pts, "UTS", 30) <= jpiAt(t, pts, "UTS", 12) {
		t.Error("UTS JPI should rise with UF (Fig. 3b)")
	}
	// Memory-bound: max UF is NOT optimal — mid beats both ends (§3.2).
	mid := jpiAt(t, pts, "Heat-irt", 21)
	if mid >= jpiAt(t, pts, "Heat-irt", 30) || mid >= jpiAt(t, pts, "Heat-irt", 12) {
		t.Error("Heat JPI should have an interior UF optimum (Fig. 3b)")
	}
}

func TestTable2Settings(t *testing.T) {
	o := testOptions()
	rows, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Bench] = r
	}
	uts := byName["UTS"]
	if len(uts.Frequent) == 0 || !uts.Frequent[0].Resolved {
		t.Fatal("UTS frequent slab unresolved")
	}
	if uts.Frequent[0].CFOptGHz != 2.3 {
		t.Errorf("UTS CFopt = %.1f, want 2.3 (Table 2)", uts.Frequent[0].CFOptGHz)
	}
	if uts.Frequent[0].UFOptGHz > 1.6 {
		t.Errorf("UTS UFopt = %.1f, want ≤ 1.6 (Table 2: 1.3)", uts.Frequent[0].UFOptGHz)
	}
	// Default column: compute-bound parks near 2.2, memory-bound near 3.0.
	if uts.DefaultUFGHz < 2.0 || uts.DefaultUFGHz > 2.5 {
		t.Errorf("UTS Default UF = %.2f, want ≈ 2.2", uts.DefaultUFGHz)
	}
	heat := byName["Heat-irt"]
	if len(heat.Frequent) == 0 {
		t.Fatal("Heat-irt has no frequent slab")
	}
	dominant := heat.Frequent[0]
	for _, f := range heat.Frequent {
		if f.SharePct > dominant.SharePct {
			dominant = f
		}
	}
	if !dominant.Resolved {
		t.Fatal("Heat-irt dominant slab unresolved")
	}
	if dominant.CFOptGHz > 1.4 {
		t.Errorf("Heat CFopt = %.1f, want ≤ 1.4 (Table 2: 1.2)", dominant.CFOptGHz)
	}
	if dominant.UFOptGHz < 2.0 || dominant.UFOptGHz > 2.7 {
		t.Errorf("Heat UFopt = %.1f, want interior ≈ 2.2-2.4", dominant.UFOptGHz)
	}
	if heat.DefaultUFGHz < 2.7 {
		t.Errorf("Heat Default UF = %.2f, want ≈ 3.0 (firmware ramps up)", heat.DefaultUFGHz)
	}
	_ = tipi.DefaultSlabWidth
}

func TestAblationOptimizationsEarnTheirKeep(t *testing.T) {
	o := testOptions()
	o.Reps = 1
	rows, err := Ablation([]string{"MiniFE"}, o)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[AblationVariant]AblationRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	full, none := byVariant[AblationFull], byVariant[AblationNone]
	// Removing every optimisation must not shrink the exploration share;
	// typically it grows it substantially.
	if none.ExplorationPct < full.ExplorationPct-1 {
		t.Errorf("exploration without optimisations (%.1f%%) below full config (%.1f%%)",
			none.ExplorationPct, full.ExplorationPct)
	}
	// And the fully optimised daemon must not save less energy.
	if full.EnergySavingsPct < none.EnergySavingsPct-0.5 {
		t.Errorf("full config saves %.1f%%, ablated %.1f%% — optimisations should pay",
			full.EnergySavingsPct, none.EnergySavingsPct)
	}
}

func TestAblationUnknownVariantRejected(t *testing.T) {
	var cfg = struct{ bad AblationVariant }{bad: "turbo"}
	if err := cfg.bad.apply(nil); err == nil {
		t.Error("unknown variant must error")
	}
}

func TestOracleGapSmall(t *testing.T) {
	// The online exploration must land within a few percent of the
	// exhaustive-sweep JPI optimum (it measures real JPI, so the only
	// slack is the stride-two walk and the Fig. 5 tie-break).
	o := testOptions()
	r, err := Oracle("Heat-irt", o, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.GapPct > 5 {
		t.Errorf("daemon JPI gap vs oracle = %.1f%%, want ≤ 5%%", r.GapPct)
	}
	if r.BestJPI.JPI <= 0 || r.Chosen.JPI <= 0 {
		t.Error("degenerate sweep points")
	}
}

func TestSweepCoversGrid(t *testing.T) {
	o := testOptions()
	o.Scale = 0.04
	pts, err := Sweep("UTS", o, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*4 { // CF 12,16,20 (+23? no: 12,16,20) — verify below
		// CF 12,16,20 and UF 12,18,24,30: 3*4 = 12
		t.Fatalf("sweep points = %d, want 12", len(pts))
	}
	for _, p := range pts {
		if p.Seconds <= 0 || p.Joules <= 0 || p.JPI <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
}

func TestDDCMStudyShape(t *testing.T) {
	o := testOptions()
	rows, err := DDCMStudy([]string{"Heat-irt"}, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The literature's result the paper's DVFS choice rests on: at matched
	// compute throttle on a memory-bound code, DVFS banks real energy
	// while DDCM (full voltage, full leakage) banks almost none.
	if r.DVFSEnergySavings < 5 {
		t.Errorf("DVFS savings = %.1f%%, want ≥ 5%% on memory-bound", r.DVFSEnergySavings)
	}
	if r.DDCMEnergySavings >= r.DVFSEnergySavings-3 {
		t.Errorf("DDCM savings %.1f%% should trail DVFS %.1f%% clearly",
			r.DDCMEnergySavings, r.DVFSEnergySavings)
	}
	// Neither knob hurts a bandwidth-bound code's time much.
	if r.DVFSSlowdown > 8 || r.DDCMSlowdown > 8 {
		t.Errorf("slowdowns %.1f%%/%.1f%% implausible for memory-bound", r.DVFSSlowdown, r.DDCMSlowdown)
	}
}

func TestTable3Sensitivity(t *testing.T) {
	o := testOptions()
	o.Reps = 1
	rows, err := Table3(o, []float64{20e-3, 60e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Table 3's trend: larger Tinv stretches exploration (10 readings per
	// probe), so energy savings shrink. At CI scale the 60 ms row is
	// mostly exploration, amplifying the effect.
	if rows[0].EnergySavings <= rows[1].EnergySavings {
		t.Errorf("savings at 20 ms (%.1f%%) should exceed 60 ms (%.1f%%)",
			rows[0].EnergySavings, rows[1].EnergySavings)
	}
	for _, r := range rows {
		if r.EnergySavings < 0.5 {
			t.Errorf("Tinv %.0f ms: geomean savings %.1f%%, want positive", r.TinvSec*1e3, r.EnergySavings)
		}
		if r.Slowdown > 15 {
			t.Errorf("Tinv %.0f ms: slowdown %.1f%% implausible", r.TinvSec*1e3, r.Slowdown)
		}
	}
}

func TestRunOneUnknownGovernor(t *testing.T) {
	if _, err := RunOne(mustSpec(t, "UTS"), "turbo", testOptions(), 1); err == nil {
		t.Error("unknown governor must error")
	}
}

// TestGovernorDeterminismSerialVsSharded is the cross-governor determinism
// contract: the same seed under the same governor must produce bit-identical
// Joules and Seconds whether the engine runs serial or sharded across
// workers. It drives a work-sharing benchmark, which really runs on the
// worker pool: the runtime's schedule is independent of same-quantum call
// order (hash-derived chunk jitter, one-quantum barrier release latency).
// Stealing runtimes always step serially; see
// TestStealingDeterministicAcrossSimWorkers.
func TestGovernorDeterminismSerialVsSharded(t *testing.T) {
	spec := mustSpec(t, "SOR-ws")
	for _, gov := range []string{
		governor.Default, governor.Cuttlefish, governor.Static,
		governor.DDCM, governor.Powersave, governor.Ondemand,
	} {
		t.Run(gov, func(t *testing.T) {
			o := testOptions()
			o.Scale = 0.04
			run := func(simWorkers int) RunResult {
				o := o
				o.SimWorkers = simWorkers
				res, err := RunOne(spec, gov, o, 7)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial, sharded := run(0), run(3)
			if serial.Joules != sharded.Joules || serial.Seconds != sharded.Seconds {
				t.Errorf("%s not deterministic across workers: serial (%.9g J, %.9g s) vs sharded (%.9g J, %.9g s)",
					gov, serial.Joules, serial.Seconds, sharded.Joules, sharded.Seconds)
			}
			if serial.Joules <= 0 || serial.Seconds <= 0 {
				t.Errorf("%s degenerate run %+v", gov, serial)
			}
		})
	}
}

// TestStealingDeterministicAcrossSimWorkers: a work-stealing runtime draws
// steal victims from one shared RNG, so its schedule depends on the order
// cores poll it; the engine therefore steps it serially whatever
// SimWorkers says, and sharded runs repeat the serial result bit for bit.
func TestStealingDeterministicAcrossSimWorkers(t *testing.T) {
	for _, name := range []string{"UTS", "Heat-irt", "bursty-tasks"} {
		t.Run(name, func(t *testing.T) {
			e, ok := scenario.Get(name)
			if !ok {
				t.Fatalf("unknown workload %s", name)
			}
			run := func(simWorkers int) RunResult {
				o := testOptions()
				o.Scale = 0.03
				o.WarmupSec = 0.25 // let the daemon act on a run this short
				o.SimWorkers = simWorkers
				res, err := RunEntry(e, governor.Cuttlefish, o, 7)
				if err != nil {
					t.Fatal(err)
				}
				res.Daemon = nil // a fresh pointer in every run
				return res
			}
			ref := run(1)
			if ref.Joules <= 0 || ref.Seconds <= 0 {
				t.Fatalf("degenerate run %+v", ref)
			}
			for i, w := range []int{4, 4} {
				if got := run(w); got != ref {
					t.Errorf("run %d at SimWorkers %d = %+v, want the serial %+v", i+2, w, got, ref)
				}
			}
		})
	}
}

// TestTable1UnderAlternativeGovernors is the acceptance path behind
// `cuttlefish -governor=<name> table1`: the census must run under any
// registered strategy.
func TestTable1UnderAlternativeGovernors(t *testing.T) {
	o := testOptions()
	o.Scale = 0.04
	for _, gov := range []string{governor.Powersave, governor.Static} {
		o.Governor = gov
		rows, err := Table1(o)
		if err != nil {
			t.Fatalf("%s: %v", gov, err)
		}
		if len(rows) != 10 {
			t.Fatalf("%s: rows = %d, want 10", gov, len(rows))
		}
		for _, r := range rows {
			if r.Seconds <= 0 || r.Distinct < 1 {
				t.Errorf("%s/%s: degenerate row %+v", gov, r.Name, r)
			}
		}
	}
}
