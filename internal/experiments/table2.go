package experiments

import (
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/governor"
	"repro/internal/tipi"
)

// FrequentSetting is the Cuttlefish outcome for one frequently occurring
// TIPI slab of a benchmark (one inner line of Table 2).
type FrequentSetting struct {
	Slab     tipi.Slab
	Range    string  // paper-style "0.064-0.068"
	SharePct float64 // share of Tinv samples
	// CFopt and UFopt in GHz (zero when unresolved, the paper's "-").
	CFOptGHz float64
	UFOptGHz float64
	Resolved bool
}

// Table2Row is one benchmark's frequency-settings report.
type Table2Row struct {
	Bench string
	// PctCFResolved and PctUFResolved are the share of distinct slabs whose
	// optima Cuttlefish discovered (Table 2's second and third columns).
	PctCFResolved float64
	PctUFResolved float64
	Frequent      []FrequentSetting
	// DefaultCFGHz and DefaultUFGHz are the Default execution's settings:
	// CFmax under the performance governor, and the firmware's
	// time-weighted average uncore frequency.
	DefaultCFGHz float64
	DefaultUFGHz float64
}

// Table2 runs full Cuttlefish on every OpenMP benchmark and reports the
// discovered CFopt/UFopt per frequent slab alongside Default's settings.
func Table2(opt Options) ([]Table2Row, error) {
	specs := bench.All()
	rows := make([]Table2Row, len(specs))
	err := forEach(len(specs), opt, func(i int) error {
		spec := specs[i]
		bopt := opt.lane(spec.Name, i)
		cf, err := RunOne(spec, governor.Cuttlefish, bopt.lane(governor.Cuttlefish, 0), opt.Seed)
		if err != nil {
			return err
		}
		def, err := RunOne(spec, governor.Default, bopt.lane(governor.Default, 1), opt.Seed)
		if err != nil {
			return err
		}
		if cf.Daemon == nil {
			return fmt.Errorf("experiments: %s Cuttlefish run lost its daemon", spec.Name)
		}
		nodes := cf.Daemon.List().Nodes()
		total := cf.Daemon.Samples()
		row := Table2Row{
			Bench:        spec.Name,
			DefaultCFGHz: 2.3,
			DefaultUFGHz: def.AvgUncoreGHz,
		}
		var cfRes, ufRes int
		for _, n := range nodes {
			if n.CF.HasOpt() {
				cfRes++
			}
			if n.UF.HasOpt() {
				ufRes++
			}
			if total > 0 && float64(n.Hits) > FrequentShare*float64(total) {
				fs := FrequentSetting{
					Slab:     n.Slab,
					Range:    n.Slab.Format(tipi.DefaultSlabWidth),
					SharePct: 100 * float64(n.Hits) / float64(total),
					Resolved: n.CF.HasOpt() && n.UF.HasOpt(),
				}
				if n.CF.HasOpt() {
					fs.CFOptGHz = n.CF.OptRatio().GHz()
				}
				if n.UF.HasOpt() {
					fs.UFOptGHz = n.UF.OptRatio().GHz()
				}
				row.Frequent = append(row.Frequent, fs)
			}
		}
		if len(nodes) > 0 {
			row.PctCFResolved = 100 * float64(cfRes) / float64(len(nodes))
			row.PctUFResolved = 100 * float64(ufRes) / float64(len(nodes))
		}
		sort.Slice(row.Frequent, func(a, b int) bool { return row.Frequent[a].Slab < row.Frequent[b].Slab })
		rows[i] = row
		return nil
	})
	return rows, err
}
