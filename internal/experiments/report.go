package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/tipi"
)

// meta echoes the options that shape a report's numbers.
func (o Options) meta() map[string]any {
	return map[string]any{
		"cores": o.Cores,
		"scale": o.Scale,
		"reps":  o.Reps,
		"seed":  o.Seed,
		"model": o.Model,
	}
}

// Table1Report converts the benchmark census for -format rendering.
func Table1Report(rows []Table1Row, opt Options) *report.RunReport {
	r := report.New("table1", "benchmark", "style", "seconds", "tipi_min", "tipi_max", "distinct_slabs", "frequent_slabs")
	r.Governor = opt.governorName("default")
	r.Title = fmt.Sprintf("Table 1: benchmark census (scale %.2f, %s environment)", opt.Scale, r.Governor)
	r.Meta = opt.meta()
	for _, row := range rows {
		r.AddRow(row.Name, string(row.Style), row.Seconds, row.TIPIMin, row.TIPIMax, row.Distinct, row.Frequent)
	}
	return r
}

// Fig2Report flattens the per-benchmark TIPI/JPI timelines.
func Fig2Report(recs map[string][]CensusPoint, opt Options) *report.RunReport {
	r := report.New("fig2", "benchmark", "time_s", "tipi", "jpi", "cf_ghz", "uf_ghz")
	r.Title = "Figure 2: TIPI and JPI timelines at max CF/UF"
	r.Meta = opt.meta()
	for _, name := range Fig2Benchmarks {
		for _, p := range recs[name] {
			r.AddRow(name, p.Time, p.TIPI, p.JPI, p.CF.GHz(), p.UF.GHz())
		}
	}
	return r
}

// Fig3Report converts a frequency sweep's frequent-slab JPI averages.
func Fig3Report(name, title string, pts []Fig3Point, opt Options) *report.RunReport {
	r := report.New(name, "benchmark", "setting_ghz", "tipi_slab", "share_pct", "jpi_nj")
	r.Title = title
	r.Meta = opt.meta()
	for _, p := range pts {
		r.AddRow(p.Bench, p.Setting.GHz(), p.Slab.Format(tipi.DefaultSlabWidth), p.SharePct, p.JPI*1e9)
	}
	return r
}

// ComparisonReport flattens a Fig. 10/11-style comparison: one row per
// benchmark plus a geomean row, with per-governor savings/slowdown columns.
func ComparisonReport(name, title string, c Comparison) *report.RunReport {
	cols := []string{"benchmark"}
	for _, g := range c.Governors {
		cols = append(cols,
			"energy_sav_pct:"+g, "energy_ci:"+g,
			"slowdown_pct:"+g, "slowdown_ci:"+g,
			"edp_sav_pct:"+g)
	}
	r := report.New(name, cols...)
	r.Title = fmt.Sprintf("%s: relative to %s (positive = better for energy/EDP, worse for time)", title, c.Baseline)
	r.Governors = append([]string{c.Baseline}, c.Governors...)
	for _, row := range c.Rows {
		cells := []any{row.Bench}
		for _, g := range c.Governors {
			cells = append(cells,
				row.EnergySavings[g].Mean, row.EnergySavings[g].CI,
				row.Slowdown[g].Mean, row.Slowdown[g].CI,
				row.EDPSavings[g].Mean)
		}
		r.AddRow(cells...)
	}
	geo := []any{"geomean"}
	for _, g := range c.Governors {
		geo = append(geo, c.GeoEnergySavings[g], nil, c.GeoSlowdown[g], nil, c.GeoEDPSavings[g])
	}
	r.AddRow(geo...)
	return r
}

// Table2Report converts the frequency-settings report: one row per
// frequent slab (or one "(none)" row for slab-free benchmarks).
func Table2Report(rows []Table2Row, opt Options) *report.RunReport {
	r := report.New("table2", "benchmark", "cf_resolved_pct", "uf_resolved_pct", "tipi_slab", "share_pct", "cf_opt_ghz", "uf_opt_ghz", "default_cf_ghz", "default_uf_ghz")
	r.Title = "Table 2: Cuttlefish CFopt/UFopt for frequent TIPI ranges vs Default"
	r.Meta = opt.meta()
	for _, row := range rows {
		if len(row.Frequent) == 0 {
			r.AddRow(row.Bench, row.PctCFResolved, row.PctUFResolved, "(none)", nil, nil, nil, row.DefaultCFGHz, row.DefaultUFGHz)
			continue
		}
		for _, f := range row.Frequent {
			var cf, uf any
			if f.CFOptGHz > 0 {
				cf = f.CFOptGHz
			}
			if f.UFOptGHz > 0 {
				uf = f.UFOptGHz
			}
			r.AddRow(row.Bench, row.PctCFResolved, row.PctUFResolved, f.Range, f.SharePct, cf, uf, row.DefaultCFGHz, row.DefaultUFGHz)
		}
	}
	return r
}

// Table3Report converts the Tinv sensitivity study.
func Table3Report(rows []Table3Row, opt Options) *report.RunReport {
	r := report.New("table3", "tinv_ms", "energy_sav_pct", "slowdown_pct")
	r.Title = "Table 3: Tinv sensitivity (geomean over OpenMP benchmarks)"
	r.Meta = opt.meta()
	for _, row := range rows {
		r.AddRow(row.TinvSec*1e3, row.EnergySavings, row.Slowdown)
	}
	return r
}

// AblationReport converts the optimisation-ablation study.
func AblationReport(rows []AblationRow, opt Options) *report.RunReport {
	r := report.New("ablation", "benchmark", "variant", "explore_pct", "resolved_pct", "energy_sav_pct", "slowdown_pct")
	r.Title = "Ablation: cost of removing the exploration-range optimisations"
	r.Meta = opt.meta()
	for _, row := range rows {
		r.AddRow(row.Bench, string(row.Variant), row.ExplorationPct, row.ResolvedPct, row.EnergySavingsPct, row.SlowdownPct)
	}
	return r
}

// DDCMReport converts the DVFS-vs-DDCM knob study.
func DDCMReport(rows []DDCMRow, opt Options) *report.RunReport {
	r := report.New("ddcm", "benchmark", "throttle_frac", "dvfs_sav_pct", "dvfs_slow_pct", "ddcm_sav_pct", "ddcm_slow_pct")
	r.Title = "DVFS vs DDCM at matched ~70% compute throttle (uncore pinned 2.2 GHz)"
	r.Meta = opt.meta()
	for _, row := range rows {
		r.AddRow(row.Bench, row.ThrottleFrac, row.DVFSEnergySavings, row.DVFSSlowdown, row.DDCMEnergySavings, row.DDCMSlowdown)
	}
	return r
}

// OracleReport converts daemon-vs-exhaustive-sweep results.
func OracleReport(rows []OracleResult, opt Options) *report.RunReport {
	r := report.New("oracle", "benchmark", "best_cf_ghz", "best_uf_ghz", "chosen_cf_ghz", "chosen_uf_ghz", "jpi_gap_pct")
	r.Title = "Oracle: daemon optima vs exhaustive frequency sweep (dominant slab)"
	r.Meta = opt.meta()
	for _, row := range rows {
		r.AddRow(row.Bench, row.BestJPI.CF.GHz(), row.BestJPI.UF.GHz(), row.Chosen.CF.GHz(), row.Chosen.UF.GHz(), row.GapPct)
	}
	return r
}
