package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/stats"
)

// AblationVariant names a daemon configuration with one or more of the
// §4.4/§4.5/Algorithm-3 optimisations removed.
type AblationVariant string

const (
	// AblationFull is the paper's configuration (all optimisations on).
	AblationFull AblationVariant = "full"
	// AblationNoSeeding removes the §4.4 neighbour seeding of new slabs.
	AblationNoSeeding AblationVariant = "no-seeding"
	// AblationNoRevalidation removes the §4.5 bound propagation.
	AblationNoRevalidation AblationVariant = "no-revalidation"
	// AblationNoUFEstimation removes Algorithm 3's uncore window.
	AblationNoUFEstimation AblationVariant = "no-uf-estimation"
	// AblationNone removes all three: every slab explores both domains
	// over the full grids independently.
	AblationNone AblationVariant = "none"
)

// AblationVariants lists the studied configurations in report order.
var AblationVariants = []AblationVariant{
	AblationFull, AblationNoSeeding, AblationNoRevalidation, AblationNoUFEstimation, AblationNone,
}

func (v AblationVariant) apply(cfg *core.Config) error {
	switch v {
	case AblationFull:
	case AblationNoSeeding:
		cfg.DisableNeighborSeeding = true
	case AblationNoRevalidation:
		cfg.DisableRevalidation = true
	case AblationNoUFEstimation:
		cfg.DisableUFEstimation = true
	case AblationNone:
		cfg.DisableNeighborSeeding = true
		cfg.DisableRevalidation = true
		cfg.DisableUFEstimation = true
	default:
		return fmt.Errorf("experiments: unknown ablation variant %q", v)
	}
	return nil
}

// AblationRow reports one variant on one benchmark.
type AblationRow struct {
	Bench   string
	Variant AblationVariant
	// ExplorationPct is the share of Tinv samples spent with the current
	// slab's optima unresolved — the quantity the optimisations minimise.
	ExplorationPct float64
	// ResolvedPct is the share of distinct slabs with both optima found.
	ResolvedPct float64
	// EnergySavingsPct and SlowdownPct are vs the Default environment.
	EnergySavingsPct float64
	SlowdownPct      float64
}

// Ablation quantifies the paper's runtime optimisations on multi-slab
// benchmarks (single-slab benchmarks cannot benefit from neighbour
// information by construction).
func Ablation(names []string, opt Options) ([]AblationRow, error) {
	if len(names) == 0 {
		names = []string{"Heat-ws", "MiniFE", "HPCCG", "AMG"}
	}
	type job struct {
		bench   int
		variant AblationVariant
		rep     int
	}
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		s, ok := bench.Get(n)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", n)
		}
		specs[i] = s
	}
	var jobs []job
	for b := range specs {
		for _, v := range AblationVariants {
			for r := 0; r < opt.Reps; r++ {
				jobs = append(jobs, job{bench: b, variant: v, rep: r})
			}
		}
	}
	outcomes := make([]RunResult, len(jobs))
	err := forEach(len(jobs), opt, func(i int) error {
		j := jobs[i]
		// Resolve Tinv/warmup exactly like every registry-built daemon,
		// then layer the ablation switches on top.
		dcfg := opt.tuning().DaemonConfig(core.PolicyBoth)
		if err := j.variant.apply(&dcfg); err != nil {
			return err
		}
		g := governor.NewCuttlefishFromConfig(dcfg)
		lopt := opt.lane(fmt.Sprintf("%s/%s/rep-%d", specs[j.bench].Name, j.variant, j.rep), i)
		res, err := run(simJob{entry: specs[j.bench].Entry(), gov: g, seed: opt.Seed + int64(j.rep)}, lopt)
		outcomes[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	// Defaults for the savings baseline.
	defaults, err := runReps(specs, governor.Default, opt.lane(governor.Default, len(jobs)))
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	for b, spec := range specs {
		for vi, v := range AblationVariants {
			var expl, res, sav, slow []float64
			for r := 0; r < opt.Reps; r++ {
				o := outcomes[(b*len(AblationVariants)+vi)*opt.Reps+r]
				def := defaults[b*opt.Reps+r]
				e, rs := daemonCoverage(o.Daemon)
				expl = append(expl, e)
				res = append(res, rs)
				sav = append(sav, stats.SavingsPercent(def.Joules, o.Joules))
				slow = append(slow, stats.SlowdownPercent(def.Seconds, o.Seconds))
			}
			rows = append(rows, AblationRow{
				Bench:            spec.Name,
				Variant:          v,
				ExplorationPct:   stats.Mean(expl),
				ResolvedPct:      stats.Mean(res),
				EnergySavingsPct: stats.Mean(sav),
				SlowdownPct:      stats.Mean(slow),
			})
		}
	}
	return rows, nil
}

// daemonCoverage reports the share of Tinv samples a daemon spent
// exploring and the share of its distinct slabs with both optima found.
func daemonCoverage(d *core.Daemon) (explorationPct, resolvedPct float64) {
	if s := d.Samples(); s > 0 {
		explorationPct = 100 * float64(d.ExplorationSamples()) / float64(s)
	}
	nodes := d.List().Nodes()
	if len(nodes) > 0 {
		resolved := 0
		for _, n := range nodes {
			if n.CF.HasOpt() && n.UF.HasOpt() {
				resolved++
			}
		}
		resolvedPct = 100 * float64(resolved) / float64(len(nodes))
	}
	return explorationPct, resolvedPct
}
