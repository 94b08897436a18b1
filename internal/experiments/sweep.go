package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/grid"
	"repro/internal/machine"
)

// SweepPoint is one fixed (CF, UF) execution of a benchmark.
type SweepPoint struct {
	CF      freq.Ratio
	UF      freq.Ratio
	Seconds float64
	Joules  float64
	EDP     float64
	JPI     float64
}

// Sweep runs a benchmark at every grid point (subsampled by the given
// strides) with frequencies pinned — the exhaustive oracle the online
// exploration is judged against. stride 2 covers the Haswell grids in 60
// runs.
func Sweep(name string, opt Options, cfStride, ufStride int) ([]SweepPoint, error) {
	spec, ok := bench.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	if cfStride <= 0 {
		cfStride = 1
	}
	if ufStride <= 0 {
		ufStride = 1
	}
	mcfg := machine.DefaultConfig()
	// The (CF, UF) axes expand through the shared grid walk — the same
	// cross-product mechanism the sweep orchestrator uses for its
	// parameter axes — instead of a hand-rolled nested loop.
	cfs := ratioSteps(mcfg.CoreGrid.Min, mcfg.CoreGrid.Max, cfStride)
	ufs := ratioSteps(mcfg.UncoreGrid.Min, mcfg.UncoreGrid.Max, ufStride)
	points := make([]SweepPoint, 0, grid.Size([]int{len(cfs), len(ufs)}))
	grid.Cross([]int{len(cfs), len(ufs)}, func(idx []int) {
		points = append(points, SweepPoint{CF: cfs[idx[0]], UF: ufs[idx[1]]})
	})
	err := forEach(len(points), opt, func(i int) error {
		p := &points[i]
		lopt := opt.lane(fmt.Sprintf("%v/%v", p.CF, p.UF), i)
		res, err := run(simJob{entry: spec.Entry(), gov: governor.NewStatic(p.CF, p.UF), seed: opt.Seed}, lopt)
		if err != nil {
			return err
		}
		p.Seconds, p.Joules, p.EDP = res.Seconds, res.Joules, res.EDP
		p.JPI = res.Joules / res.Instructions
		return nil
	})
	return points, err
}

// ratioSteps lists the frequency grid's strided steps from min to max
// inclusive.
func ratioSteps(min, max freq.Ratio, stride int) []freq.Ratio {
	var steps []freq.Ratio
	for r := min; r <= max; r += freq.Ratio(stride) {
		steps = append(steps, r)
	}
	return steps
}

// OracleResult compares the daemon's end-state frequencies against the
// sweep's best grid point.
type OracleResult struct {
	Bench string
	// BestJPI is the grid point with the lowest JPI (the quantity the
	// daemon optimises per slab).
	BestJPI SweepPoint
	// Chosen is the sweep point at the daemon's dominant-slab optima.
	Chosen SweepPoint
	// GapPct is how much higher the chosen point's JPI is than the best.
	GapPct float64
}

// Oracle runs full Cuttlefish once, sweeps the grid at the same scale, and
// reports the JPI gap between the daemon's dominant-slab choice and the
// exhaustive optimum.
func Oracle(name string, opt Options, cfStride, ufStride int) (OracleResult, error) {
	spec, ok := bench.Get(name)
	if !ok {
		return OracleResult{}, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	res, err := RunOne(spec, governor.Cuttlefish, opt.lane(governor.Cuttlefish, 0), opt.Seed)
	if err != nil {
		return OracleResult{}, err
	}
	var cfOpt, ufOpt freq.Ratio
	bestHits := 0
	for _, n := range res.Daemon.List().Nodes() {
		if n.Hits > bestHits && n.CF.HasOpt() && n.UF.HasOpt() {
			bestHits = n.Hits
			cfOpt, ufOpt = n.CF.OptRatio(), n.UF.OptRatio()
		}
	}
	if bestHits == 0 {
		return OracleResult{}, fmt.Errorf("experiments: %s resolved no slab to compare", name)
	}
	grid, err := Sweep(name, opt.lane(fmt.Sprintf("sweep-%dx%d", cfStride, ufStride), 1), cfStride, ufStride)
	if err != nil {
		return OracleResult{}, err
	}
	out := OracleResult{Bench: name}
	var haveChosen bool
	for _, p := range grid {
		if p.Seconds <= 0 {
			continue
		}
		if out.BestJPI.Seconds == 0 || p.JPI < out.BestJPI.JPI {
			out.BestJPI = p
		}
		if p.CF == cfOpt && p.UF == ufOpt {
			out.Chosen = p
			haveChosen = true
		}
	}
	if !haveChosen {
		// The daemon's choice fell between sweep strides; rerun that exact
		// point.
		exact, err := Sweep(name, opt.lane("sweep-1x1", 2), 1, 1)
		if err != nil {
			return OracleResult{}, err
		}
		for _, p := range exact {
			if p.JPI < out.BestJPI.JPI {
				out.BestJPI = p
			}
			if p.CF == cfOpt && p.UF == ufOpt {
				out.Chosen = p
				haveChosen = true
			}
		}
		if !haveChosen {
			return OracleResult{}, fmt.Errorf("experiments: daemon chose off-grid point %v/%v", cfOpt, ufOpt)
		}
	}
	out.GapPct = 100 * (out.Chosen.JPI/out.BestJPI.JPI - 1)
	return out, nil
}
