package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/freq"
	"repro/internal/governor"
)

// DDCMRow compares the two core-throttling knobs the energy-efficiency
// literature the paper builds on uses: DVFS (voltage and frequency drop
// together) versus DDCM (clock gating at full voltage, per Bhalachandra et
// al. [6]). Both rows throttle compute throughput by the same nominal
// factor; DVFS should win on energy because voltage scales quadratically
// into dynamic power while DDCM pays full leakage and voltage throughout —
// the reason the paper's design builds on DVFS+UFS rather than DDCM.
type DDCMRow struct {
	Bench string
	// ThrottleFrac is the nominal compute-throughput factor vs max.
	ThrottleFrac float64
	// DVFS and DDCM are energy savings (%) and slowdown (%) vs the
	// unthrottled run.
	DVFSEnergySavings float64
	DVFSSlowdown      float64
	DDCMEnergySavings float64
	DDCMSlowdown      float64
}

// DDCMStudy throttles each benchmark to ≈70% compute throughput with both
// knobs (uncore pinned at the firmware's quiet point to isolate the core
// knob) and reports the energy/time outcomes.
func DDCMStudy(names []string, opt Options) ([]DDCMRow, error) {
	if len(names) == 0 {
		names = []string{"UTS", "SOR-irt", "Heat-irt", "MiniFE"}
	}
	const (
		dvfsRatio = 16 // 1.6 GHz of 2.3 → 0.696
		ddcmLevel = 6  // 6/8 duty → 0.75, the closest DDCM step
	)
	rows := make([]DDCMRow, len(names))
	err := forEach(len(names), opt, func(i int) error {
		spec, ok := bench.Get(names[i])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", names[i])
		}
		bopt := opt.lane(spec.Name, i)
		base, err := runThrottled(spec, bopt.lane("base", 0), 23, 0)
		if err != nil {
			return err
		}
		dvfs, err := runThrottled(spec, bopt.lane("dvfs", 1), dvfsRatio, 0)
		if err != nil {
			return err
		}
		ddcm, err := runThrottled(spec, bopt.lane("ddcm", 2), 23, ddcmLevel)
		if err != nil {
			return err
		}
		rows[i] = DDCMRow{
			Bench:             spec.Name,
			ThrottleFrac:      float64(dvfsRatio) / 23,
			DVFSEnergySavings: 100 * (1 - dvfs.Joules/base.Joules),
			DVFSSlowdown:      100 * (dvfs.Seconds/base.Seconds - 1),
			DDCMEnergySavings: 100 * (1 - ddcm.Joules/base.Joules),
			DDCMSlowdown:      100 * (ddcm.Seconds/base.Seconds - 1),
		}
		return nil
	})
	return rows, err
}

// runThrottled runs spec under the ddcm governor, which pins the uncore
// at the firmware's quiet point so only the core knob varies between the
// rows.
func runThrottled(spec bench.Spec, opt Options, cfRatio, ddcmLevel uint8) (RunResult, error) {
	g := governor.NewDDCM(freq.Ratio(cfRatio), ddcmLevel)
	return run(simJob{entry: spec.Entry(), gov: g, seed: opt.Seed}, opt)
}
