package experiments

import (
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/governor"
	"repro/internal/stats"
)

// Cell is a mean with a 95% confidence half-width over repetitions.
type Cell struct {
	Mean float64
	CI   float64
}

// CompareRow is one benchmark's comparison against the baseline governor,
// in percent: positive energy/EDP savings are improvements, positive
// slowdown is lost time — the quantities on the y-axes of Figs. 10 and 11.
// Maps are keyed by registered governor name.
type CompareRow struct {
	Bench         string
	EnergySavings map[string]Cell
	Slowdown      map[string]Cell
	EDPSavings    map[string]Cell
}

// Comparison is a full Fig. 10/11-style result.
type Comparison struct {
	Model bench.Model
	// Baseline is the reference governor the savings are relative to.
	Baseline string
	// Governors is the comparison set, in report order.
	Governors []string
	Rows      []CompareRow
	// Geomean aggregates match the paper's headline numbers: geometric
	// mean of the per-benchmark ratios, expressed as percentages.
	GeoEnergySavings map[string]float64
	GeoSlowdown      map[string]float64
	GeoEDPSavings    map[string]float64
}

// runKey addresses one simulation inside the flattened comparison matrix.
type runKey struct {
	bench    int
	governor string
	rep      int
}

// Compare evaluates the paper's three Cuttlefish variants against the
// Default environment over the given benchmarks.
// Repetition r of every governor shares a seed with repetition r of the
// baseline, so ratios compare like with like.
func Compare(names []string, opt Options) (Comparison, error) {
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		s, ok := bench.Get(n)
		if !ok {
			return Comparison{}, fmt.Errorf("experiments: unknown benchmark %q", n)
		}
		specs[i] = s
	}
	baseline, govs := governor.Default, governor.CuttlefishVariants
	all := append([]string{baseline}, govs...)
	var keys []runKey
	for b := range specs {
		for _, g := range all {
			for r := 0; r < opt.Reps; r++ {
				keys = append(keys, runKey{bench: b, governor: g, rep: r})
			}
		}
	}
	results := make(map[runKey]RunResult, len(keys))
	var mu sync.Mutex
	err := forEach(len(keys), opt, func(i int) error {
		k := keys[i]
		lopt := opt.lane(fmt.Sprintf("%s/%s/rep-%d", specs[k.bench].Name, k.governor, k.rep), i)
		res, err := RunOne(specs[k.bench], k.governor, lopt, opt.Seed+int64(k.rep))
		if err != nil {
			return err
		}
		mu.Lock()
		results[k] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		return Comparison{}, err
	}

	cmp := Comparison{
		Model:            bench.Model(opt.Model),
		Baseline:         baseline,
		Governors:        govs,
		GeoEnergySavings: map[string]float64{},
		GeoSlowdown:      map[string]float64{},
		GeoEDPSavings:    map[string]float64{},
	}
	// Per-benchmark cells plus ratio collection for the geomeans.
	ratioE := map[string][]float64{}
	ratioT := map[string][]float64{}
	ratioD := map[string][]float64{}
	for b, spec := range specs {
		row := CompareRow{
			Bench:         spec.Name,
			EnergySavings: map[string]Cell{},
			Slowdown:      map[string]Cell{},
			EDPSavings:    map[string]Cell{},
		}
		for _, g := range govs {
			var es, sl, ed, re, rt, rd []float64
			for r := 0; r < opt.Reps; r++ {
				def := results[runKey{bench: b, governor: baseline, rep: r}]
				cf := results[runKey{bench: b, governor: g, rep: r}]
				es = append(es, stats.SavingsPercent(def.Joules, cf.Joules))
				sl = append(sl, stats.SlowdownPercent(def.Seconds, cf.Seconds))
				ed = append(ed, stats.SavingsPercent(def.EDP, cf.EDP))
				re = append(re, cf.Joules/def.Joules)
				rt = append(rt, cf.Seconds/def.Seconds)
				rd = append(rd, cf.EDP/def.EDP)
			}
			row.EnergySavings[g] = Cell{Mean: stats.Mean(es), CI: stats.CI95(es)}
			row.Slowdown[g] = Cell{Mean: stats.Mean(sl), CI: stats.CI95(sl)}
			row.EDPSavings[g] = Cell{Mean: stats.Mean(ed), CI: stats.CI95(ed)}
			ratioE[g] = append(ratioE[g], stats.Mean(re))
			ratioT[g] = append(ratioT[g], stats.Mean(rt))
			ratioD[g] = append(ratioD[g], stats.Mean(rd))
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	for _, g := range govs {
		cmp.GeoEnergySavings[g] = 100 * (1 - stats.GeoMean(ratioE[g]))
		cmp.GeoSlowdown[g] = 100 * (stats.GeoMean(ratioT[g]) - 1)
		cmp.GeoEDPSavings[g] = 100 * (1 - stats.GeoMean(ratioD[g]))
	}
	return cmp, nil
}

// Fig10 reproduces the OpenMP evaluation over all ten benchmarks.
func Fig10(opt Options) (Comparison, error) {
	opt.Model = string(bench.OpenMP)
	return Compare(bench.Names(), opt)
}

// Fig11 reproduces the HClib evaluation over the six SOR/Heat variants.
func Fig11(opt Options) (Comparison, error) {
	opt.Model = string(bench.HClib)
	return Compare(bench.HClibNames(), opt)
}

// Table3Row is one Tinv setting's geomean outcome.
type Table3Row struct {
	TinvSec       float64
	EnergySavings float64
	Slowdown      float64
}

// Table3 reproduces the Tinv sensitivity study: geomean energy savings and
// slowdown of full Cuttlefish across the OpenMP benchmarks at each Tinv.
func Table3(opt Options, tinvs []float64) ([]Table3Row, error) {
	if len(tinvs) == 0 {
		tinvs = []float64{10e-3, 20e-3, 40e-3, 60e-3}
	}
	names := bench.Names()
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		specs[i], _ = bench.Get(n)
	}

	// The baseline is Tinv-independent; run it once.
	defaults, err := runReps(specs, governor.Default, opt.lane(governor.Default, 0))
	if err != nil {
		return nil, err
	}

	rows := make([]Table3Row, len(tinvs))
	for ti, tinv := range tinvs {
		o := opt.lane(fmt.Sprintf("%s/tinv-%gms", governor.Cuttlefish, tinv*1e3), ti+1)
		o.TinvSec = tinv
		runs, err := runReps(specs, governor.Cuttlefish, o)
		if err != nil {
			return nil, err
		}
		var ratioE, ratioT []float64
		for b := range specs {
			var re, rt []float64
			for r := 0; r < opt.Reps; r++ {
				i := b*opt.Reps + r
				re = append(re, runs[i].Joules/defaults[i].Joules)
				rt = append(rt, runs[i].Seconds/defaults[i].Seconds)
			}
			ratioE = append(ratioE, stats.Mean(re))
			ratioT = append(ratioT, stats.Mean(rt))
		}
		rows[ti] = Table3Row{
			TinvSec:       tinv,
			EnergySavings: 100 * (1 - stats.GeoMean(ratioE)),
			Slowdown:      100 * (stats.GeoMean(ratioT) - 1),
		}
	}
	return rows, nil
}

// runReps runs every spec Reps times under gov. Result b*Reps+r is spec
// b's repetition r, seeded Seed+r like the matching repetition of every
// other governor, so ratios compare like with like. Each run samples into
// its own lane of opt's recorder, which the caller scopes to this call.
func runReps(specs []bench.Spec, gov string, opt Options) ([]RunResult, error) {
	out := make([]RunResult, len(specs)*opt.Reps)
	err := forEach(len(out), opt, func(i int) error {
		spec, r := specs[i/opt.Reps], i%opt.Reps
		var err error
		out[i], err = RunOne(spec, gov, opt.lane(fmt.Sprintf("%s/rep-%d", spec.Name, r), i), opt.Seed+int64(r))
		return err
	})
	return out, err
}
