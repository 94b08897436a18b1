package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/report"
	"repro/internal/scenario"
)

// Names lists the experiment harnesses BuildReport can run, in the
// paper's presentation order. "run" is the single-benchmark execution the
// service layer's RunSpec defaults to; the rest regenerate one artefact of
// the evaluation each.
var Names = []string{
	"run", "table1", "fig2", "fig3a", "fig3b", "fig10", "fig11",
	"table2", "table3", "ablation", "ddcm", "oracle",
}

// Known reports whether name is an experiment BuildReport understands.
func Known(name string) bool {
	for _, n := range Names {
		if n == name {
			return true
		}
	}
	return false
}

// OracleBenchmarks are the representative benchmarks the oracle study
// sweeps (one per TIPI regime).
var OracleBenchmarks = []string{"UTS", "SOR-irt", "Heat-irt", "MiniFE"}

// BuildReport runs opt's experiment and converts its rows to a
// structured report. It is the single dispatch point behind the cuttlefish
// CLI and the cfserve executor, so a new harness becomes remotely servable
// the moment it is added here.
func BuildReport(opt Options) (*report.RunReport, error) {
	switch opt.Experiment {
	case "run":
		return RunOneReport(opt)
	case "table1":
		rows, err := Table1(opt)
		if err != nil {
			return nil, err
		}
		return Table1Report(rows, opt), nil
	case "fig2":
		recs, err := Fig2(opt)
		if err != nil {
			return nil, err
		}
		return Fig2Report(recs, opt), nil
	case "fig3a":
		pts, err := Fig3a(opt)
		if err != nil {
			return nil, err
		}
		return Fig3Report("fig3a", "Figure 3(a): average JPI of frequent TIPI slabs, UF = 3.0 GHz", pts, opt), nil
	case "fig3b":
		pts, err := Fig3b(opt)
		if err != nil {
			return nil, err
		}
		return Fig3Report("fig3b", "Figure 3(b): average JPI of frequent TIPI slabs, CF = 2.3 GHz", pts, opt), nil
	case "fig10":
		cmp, err := Fig10(opt)
		if err != nil {
			return nil, err
		}
		return ComparisonReport("fig10", "Figure 10 (OpenMP)", cmp), nil
	case "fig11":
		cmp, err := Fig11(opt)
		if err != nil {
			return nil, err
		}
		return ComparisonReport("fig11", "Figure 11 (HClib)", cmp), nil
	case "table2":
		rows, err := Table2(opt)
		if err != nil {
			return nil, err
		}
		return Table2Report(rows, opt), nil
	case "table3":
		rows, err := Table3(opt, nil)
		if err != nil {
			return nil, err
		}
		return Table3Report(rows, opt), nil
	case "ablation":
		rows, err := Ablation(nil, opt)
		if err != nil {
			return nil, err
		}
		return AblationReport(rows, opt), nil
	case "ddcm":
		rows, err := DDCMStudy(nil, opt)
		if err != nil {
			return nil, err
		}
		return DDCMReport(rows, opt), nil
	case "oracle":
		var rows []OracleResult
		for i, b := range OracleBenchmarks {
			r, err := Oracle(b, opt.lane(b, i), 1, 2)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		return OracleReport(rows, opt), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", opt.Experiment)
	}
}

// resolveWorkload maps the "run" experiment's selectors onto one
// scenario-registry entry, in precedence order: an inline definition,
// then the named workload (benchmark or registered scenario — both live
// in the same registry, so one lookup serves both).
func resolveWorkload(opt Options) (scenario.Entry, error) {
	if opt.ScenarioDef != nil {
		def := opt.ScenarioDef.Normalized()
		if err := def.Validate(); err != nil {
			return scenario.Entry{}, err
		}
		cores := opt.Cores
		if cores <= 0 {
			cores = DefaultOptions().Cores
		}
		return scenario.Entry{
			Name:           def.Name,
			Description:    def.Description,
			NominalSeconds: def.EstimateSeconds(cores),
			Build:          def.Build,
			Def:            &def,
		}, nil
	}
	name := opt.Benchmark
	if name == "" {
		name = opt.Scenario
	}
	if name == "" {
		return scenario.Entry{}, fmt.Errorf("experiments: the run experiment needs a workload (benchmarks: %v; scenarios: %v)",
			bench.Names(), scenario.NamesOf(scenario.KindSynthetic))
	}
	e, ok := scenario.Get(name)
	if !ok {
		return scenario.Entry{}, fmt.Errorf("experiments: unknown workload %q (benchmarks: %v; scenarios: %v)",
			name, bench.Names(), scenario.NamesOf(scenario.KindSynthetic))
	}
	return e, nil
}

// Column names of the "run" report, exported so consumers that parse the
// canonical bytes back out of the cache (the fuzz differ, sweep
// aggregation tooling) name columns against the producer instead of
// re-spelling strings that could silently drift.
const (
	RunColBenchmark = "benchmark"
	RunColGovernor  = "governor"
	RunColRep       = "rep"
	RunColSeconds   = "seconds"
	RunColJoules    = "joules"
	RunColAvgWatts  = "avg_watts"
	RunColEDP       = "edp"
	RunColUncoreGHz = "avg_uncore_ghz"
)

// RunOneReport executes one workload Reps times under the configured
// governor and reports one row per repetition: the "run" experiment behind
// POST /v1/runs. The workload resolves through the scenario registry —
// a Table 1 benchmark, a built-in synthetic scenario or an inline
// definition. Repetition r runs with Seed+r, so the whole report is a
// pure function of (workload, governor, tuning, cores, scale, reps, seed)
// — the property the service cache keys on.
func RunOneReport(opt Options) (*report.RunReport, error) {
	entry, err := resolveWorkload(opt)
	if err != nil {
		return nil, err
	}
	gov := opt.governorName("default")
	reps := opt.Reps
	if reps < 1 {
		reps = 1
	}
	results := make([]RunResult, reps)
	err = forEach(reps, opt, func(r int) error {
		ropt := opt
		// Each repetition records under its own span lane; the index-bearing
		// name keeps span IDs deterministic under concurrent creation.
		sp := opt.Span.ChildLane(fmt.Sprintf("rep-%d", r), r+1)
		sp.Set("seed", opt.Seed+int64(r))
		ropt.Span = sp
		// Timelines split per repetition too, under the matching lane name,
		// so rep r's samples line up with rep r's spans.
		ropt.Timeline = opt.Timeline.Lane(fmt.Sprintf("rep-%d", r), r)
		res, err := RunEntry(entry, gov, ropt, opt.Seed+int64(r))
		sp.End()
		results[r] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := report.New("run", RunColBenchmark, RunColGovernor, RunColRep, RunColSeconds,
		RunColJoules, RunColAvgWatts, RunColEDP, RunColUncoreGHz)
	rep.Governor = gov
	rep.Title = fmt.Sprintf("%s under %s (scale %.2f, %d rep(s))", entry.Name, gov, opt.Scale, reps)
	rep.Meta = opt.meta()
	for r, res := range results {
		rep.AddRow(entry.Name, res.Governor, r, res.Seconds, res.Joules,
			res.Joules/res.Seconds, res.EDP, res.AvgUncoreGHz)
	}
	return rep, nil
}
