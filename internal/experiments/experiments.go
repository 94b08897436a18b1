// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 benchmark census, the Fig. 2 TIPI/JPI timelines,
// the Fig. 3 fixed-frequency JPI sweeps, the Fig. 10 (OpenMP) and Fig. 11
// (HClib) policy comparisons, the Table 2 frequency-settings report and the
// Table 3 Tinv sensitivity study.
//
// Every harness runs its simulations through one function, simulate: it
// boots the machine, wires the flight recorder, brackets the run with the
// governor's Attach/Detach (so the msr-safe Save/Restore and daemon
// teardown are uniform across success and error paths), builds the
// workload source or restores a memoized prefix of it, applies the one
// deadline rule, records the simulate span, and returns the RunResult.
// Harnesses differ only in the governor they pass and, for the census,
// a pre-run hook that schedules the MSR profiler.
//
// Absolute joules and seconds are simulator outputs; the contract is shape
// fidelity (see EXPERIMENTS.md for the paper-vs-measured record).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Options configure an experiment run: the run's identity, which is the
// hashed Spec, plus host concurrency and runtime wiring, none of which
// changes a report byte.
type Options struct {
	Spec
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Memo is the prefix-snapshot tier (internal/memo): when non-nil,
	// work-sharing scenario runs look up the longest memoized prefix of
	// their region schedule, restore it, and simulate only the suffix.
	// It is runtime wiring, not part of any run's identity — results are
	// byte-identical with or without it.
	Memo *memo.Tier
	// MemoStats, when non-nil, accumulates this request's memo activity
	// (runs, prefix hits, quanta saved); the service layer surfaces it as
	// the X-Memo response detail.
	MemoStats *memo.RunStats
	// Span is the parent trace span this run records under; nil disables
	// tracing. Like Memo it is runtime wiring, never part of a run's
	// identity: spans live strictly outside report bytes and cache keys.
	Span *obs.Span
	// Profile enables the engine's wall-clock self-accounting
	// (machine.Config.Profile); results are bit-identical either way, and
	// the numbers surface as span arguments when Span is set.
	Profile bool
	// Timeline is the flight recorder this run samples into; nil disables
	// recording. Like Span and Memo it is runtime wiring, never part of a
	// run's identity: timelines live strictly outside report bytes, spec
	// hashes and memo keys, and are themselves a pure function of
	// simulation state (two identical runs record identical timelines).
	Timeline *timeline.Recorder
}

// lane narrows the options' flight recorder to the named child lane.
// Harnesses give every job of a concurrent fan-out its own lane, ordered
// by job index, so no two simulations sample into one lane in host
// scheduling order and the exported timeline is a pure function of the
// spec. Nil-safe like the recorder: a disabled run stays disabled.
func (o Options) lane(name string, order int) Options {
	o.Timeline = o.Timeline.Lane(name, order)
	return o
}

// pool returns the shared bounded-concurrency pool every harness fans its
// independent simulations out on.
func (o Options) pool() runner.Pool { return runner.Pool{Workers: o.Workers} }

// machineConfig builds the simulated socket's configuration.
func (o Options) machineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = o.Cores
	cfg.Profile = o.Profile
	return cfg
}

// tuning maps the run options onto the registry's per-run parameters.
func (o Options) tuning() governor.Tuning {
	return governor.Tuning{TinvSec: o.TinvSec, WarmupSec: o.WarmupSec}
}

// governorName resolves the single-environment strategy, falling back to
// the harness's paper default when -governor was not given.
func (o Options) governorName(paperDefault string) string {
	if o.Governor != "" {
		return o.Governor
	}
	return paperDefault
}

// DefaultOptions returns a configuration that finishes the full evaluation
// in minutes on a laptop while preserving the paper's shapes.
func DefaultOptions() Options {
	return Options{Spec: Spec{
		Cores:     20,
		Scale:     0.30,
		Reps:      5,
		Seed:      1,
		TinvSec:   20e-3,
		WarmupSec: 2.0,
		Model:     string(bench.OpenMP),
	}}
}

// RunResult is one benchmark execution.
type RunResult struct {
	// Governor is the registered strategy the run executed under.
	Governor string
	Seconds  float64
	Joules   float64
	EDP      float64
	// Instructions is the run's total retired instruction count, the
	// denominator of its joules per instruction.
	Instructions float64
	// AvgUncoreGHz is the run's time-weighted uncore frequency.
	AvgUncoreGHz float64
	// Daemon carries the slab list for daemon-backed governors (nil
	// otherwise).
	Daemon *core.Daemon
}

// RunOne executes one benchmark under one registered governor. The
// governor's Attach/Detach brackets the run, so the MSR save/restore and
// daemon teardown happen on every path, including errors.
func RunOne(spec bench.Spec, gov string, opt Options, seed int64) (RunResult, error) {
	return RunEntry(spec.Entry(), gov, opt, seed)
}

// RunEntry is RunOne for any workload in the scenario registry — a
// Table 1 benchmark, a built-in synthetic or an inline definition
// wrapped in an Entry.
func RunEntry(e scenario.Entry, gov string, opt Options, seed int64) (RunResult, error) {
	g, err := governor.New(gov, opt.tuning())
	if err != nil {
		return RunResult{}, err
	}
	return run(simJob{entry: e, gov: g, seed: seed}, opt)
}

// simJob is one simulation: a workload, the seed its source is built
// with, and the governor driving the machine.
type simJob struct {
	entry scenario.Entry
	gov   governor.Governor
	seed  int64
	// prerun, when set, runs on the booted machine after the governor
	// attaches and before the source is installed; the census schedules
	// its MSR profiler here.
	prerun func(m *machine.Machine) error
}

// run executes one job. A memo tier and a deterministic region schedule
// send it through the prefix-resume path (memo.go); everything else
// simulates from boot.
func run(j simJob, opt Options) (RunResult, error) {
	if opt.Memo != nil && j.entry.Def != nil {
		if p := newMemoPlan(j, opt); p != nil {
			return p.run(j, opt)
		}
	}
	return simulate(j, opt, nil, 0)
}

// maxSimSeconds is the one deadline rule: ten times the workload's
// nominal wall time at this scale, plus the daemon warmup and 30 s of
// headroom. Only a run's last batch can end at the deadline; every
// other batch ends at a component event, a region boundary or
// completion, none of which depends on the deadline.
// So the cap only decides whether a run fails, and every finished run is
// bit-identical under any looser cap (DESIGN.md, "One simulation path").
func (o Options) maxSimSeconds(nominalSec float64) float64 {
	return nominalSec*o.Scale*10 + o.WarmupSec + 30
}

// maxRegionSpans caps per-region trace spans for one simulation: past a
// few dozen the Chrome timeline stops being readable and the span list
// stops being cheap.
const maxRegionSpans = 64

// simulate is the single simulation path: every harness runs its
// machines through it. It boots a machine, arms the flight recorder
// before the governor attaches (so decision events are recorded),
// brackets the run with the governor's Attach/Detach, builds the
// workload source — or, given a memo plan and a resume point fromK > 0,
// restores the snapshot's machine, governor and schedule state — and
// runs to completion under maxSimSeconds.
//
// Observation never changes simulated results. The flight recorder is
// sampled at entry, at every region boundary and after the run. A
// plain run records a simulate span with one child per region stretch
// (up to maxRegionSpans; names carry the boundary index, so the span
// structure is a pure function of the region schedule); a memo run's
// simulate span instead reports where it resumed and how many snapshots
// it stored, as one pack, at the boundaries its plan selects.
func simulate(j simJob, opt Options, mp *memoPlan, fromK int) (RunResult, error) {
	cfg := opt.machineConfig()
	m, err := machine.New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	m.SetTimeline(opt.Timeline)
	att, err := j.gov.Attach(m)
	if err != nil {
		return RunResult{}, err
	}
	defer att.Detach() // uniform cleanup on every early return
	if j.prerun != nil {
		if err := j.prerun(m); err != nil {
			return RunResult{}, err
		}
	}
	var src workload.Source
	if mp != nil {
		src, err = mp.source(m, att, opt, j.seed, fromK)
	} else {
		src, err = j.entry.Build(scenario.Params{Cores: cfg.Cores, Scale: opt.Scale, Seed: j.seed, Model: opt.Model})
	}
	if err != nil {
		return RunResult{}, err
	}
	m.SetSource(src)

	maxSim := opt.maxSimSeconds(j.entry.NominalSeconds)
	start := m.Now()
	sp := opt.Span.Child("simulate")
	var region *obs.Span
	if mp != nil {
		sp.Set("resume_sim_seconds", start)
	} else {
		sp.Set("workload", j.entry.Name)
		region = sp.Child("region-0")
	}
	rec, snapshotting := opt.Timeline != nil, mp != nil
	spans := 0
	m.RecordTimeline()
	m.RunBoundaries(maxSim-start, func(n int) bool {
		m.RecordTimeline()
		if region != nil {
			region.Set("end_boundary", n)
			region.End()
			if spans++; spans >= maxRegionSpans {
				region = nil
			} else {
				region = sp.Child(fmt.Sprintf("region-%d", n))
			}
		}
		if snapshotting {
			snapshotting = mp.snapshot(m, att, n)
		}
		return rec || region != nil || snapshotting
	})
	region.End()
	m.RecordTimeline()
	if mp != nil {
		mp.tier.PutPack(mp.pack)
		sp.Set("snapshots_stored", len(mp.pack))
	}
	sp.Set("sim_seconds", m.Now()-start)
	if p := m.Profile(); p.Enabled {
		sp.Set("profile", p)
	}
	sp.End()
	if !m.Finished() {
		return RunResult{}, fmt.Errorf("experiments: %s/%s did not finish in %.0f simulated seconds", j.entry.Name, j.gov.Name(), maxSim)
	}
	if err := att.Detach(); err != nil {
		return RunResult{}, err
	}
	sec, joules := m.Now(), m.TotalEnergy()
	return RunResult{
		Governor:     j.gov.Name(),
		Seconds:      sec,
		Joules:       joules,
		EDP:          stats.EDP(joules, sec),
		Instructions: m.TotalInstructions(),
		AvgUncoreGHz: m.AvgUncoreGHz(),
		Daemon:       att.Daemon(),
	}, nil
}

// forEach fans n independent simulations out on the shared runner pool.
// All failures are aggregated (the private pool this replaced returned only
// the first error and dropped the rest).
func forEach(n int, opt Options, fn func(i int) error) error {
	return opt.pool().ForEach(context.Background(), n, func(_ context.Context, i int) error {
		return fn(i)
	})
}
