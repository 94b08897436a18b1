package cuttlefish

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each bench regenerates its artefact at a reduced
// scale and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as a one-shot reproduction of the paper's result shapes (see
// EXPERIMENTS.md for the paper-vs-measured record; cmd/cuttlefish prints
// the full tables). Micro-benchmarks for the hot simulator paths follow.

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/sched"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// benchOptions shrink the runs so the full harness finishes in minutes.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = 0.12
	o.Reps = 2
	return o
}

// BenchmarkTable1 regenerates the benchmark census.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var distinct int
		for _, r := range rows {
			distinct += r.Distinct
		}
		b.ReportMetric(float64(distinct), "slabs")
	}
}

// BenchmarkTable1Timeline regenerates the census with the flight
// recorder armed. Compare against BenchmarkTable1 for the recorder's
// overhead (target < 3%).
func BenchmarkTable1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Timeline = timeline.New("bench")
		rows, err := experiments.Table1(o)
		if err != nil {
			b.Fatal(err)
		}
		var distinct int
		for _, r := range rows {
			distinct += r.Distinct
		}
		b.ReportMetric(float64(distinct), "slabs")
	}
}

// BenchmarkFig2 regenerates the TIPI/JPI execution timelines.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs, err := experiments.Fig2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var pts int
		for _, r := range recs {
			pts += len(r)
		}
		b.ReportMetric(float64(pts), "samples")
	}
}

// BenchmarkFig3a regenerates the core-frequency JPI sweep.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFig3b regenerates the uncore-frequency JPI sweep.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFig10 regenerates the OpenMP policy comparison and reports the
// paper's headline geomeans.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Fig10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.GeoEnergySavings[governor.Cuttlefish], "energy-savings-%")
		b.ReportMetric(cmp.GeoSlowdown[governor.Cuttlefish], "slowdown-%")
		b.ReportMetric(cmp.GeoEDPSavings[governor.Cuttlefish], "edp-savings-%")
	}
}

// BenchmarkFig11 regenerates the HClib policy comparison.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Fig11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.GeoEnergySavings[governor.Cuttlefish], "energy-savings-%")
		b.ReportMetric(cmp.GeoSlowdown[governor.Cuttlefish], "slowdown-%")
	}
}

// BenchmarkTable2 regenerates the frequency-settings report.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var resolved float64
		for _, r := range rows {
			resolved += r.PctCFResolved
		}
		b.ReportMetric(resolved/float64(len(rows)), "avg-cf-resolved-%")
	}
}

// BenchmarkTable3 regenerates the Tinv sensitivity study (two points at
// bench scale; the CLI runs all four).
func BenchmarkTable3(b *testing.B) {
	o := benchOptions()
	o.Reps = 1
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(o, []float64{10e-3, 20e-3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].EnergySavings, "savings-at-20ms-%")
	}
}

// BenchmarkAblation quantifies the §4.4/§4.5/Algorithm-3 optimisations: it
// reports the exploration share with everything on vs everything off.
func BenchmarkAblation(b *testing.B) {
	o := benchOptions()
	o.Reps = 1
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation([]string{"MiniFE"}, o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case experiments.AblationFull:
				b.ReportMetric(r.ExplorationPct, "explore-full-%")
			case experiments.AblationNone:
				b.ReportMetric(r.ExplorationPct, "explore-none-%")
			}
		}
	}
}

// BenchmarkDDCM compares DVFS and duty-cycle modulation at matched
// throttle, the knob study behind the paper's DVFS+UFS design choice.
func BenchmarkDDCM(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DDCMStudy([]string{"Heat-irt"}, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DVFSEnergySavings, "dvfs-savings-%")
		b.ReportMetric(rows[0].DDCMEnergySavings, "ddcm-savings-%")
	}
}

// BenchmarkMPIX runs the §4.6 cluster extension: a 2-node balanced MPI+X
// program under per-node Cuttlefish vs Default.
func BenchmarkMPIX(b *testing.B) {
	app := cluster.App{
		Steps: 40,
		Compute: func(rank, step int) []sched.Region {
			return []sched.Region{{
				Seg:    workload.Segment{Instructions: 2e7, MissPerInstr: 0.066, IPC: 2, Exposure: 0.6},
				Chunks: 160,
			}}
		},
		ExchangeBytes: func(rank, step int) float64 { return 4 << 20 },
	}
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 2
		cfg.Tuning.WarmupSec = 0.2
		cfg.Governor = GovernorDefault
		def, err := cluster.Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Governor = GovernorCuttlefish
		cf, err := cluster.Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-cf.Joules/def.Joules), "cluster-savings-%")
	}
}

// BenchmarkOracle verifies the daemon against the exhaustive frequency
// sweep and reports the JPI gap.
func BenchmarkOracle(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Oracle("Heat-irt", o, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GapPct, "jpi-gap-%")
	}
}

// --- micro-benchmarks of the simulator's hot paths ---

// BenchmarkMachineStep measures one simulation quantum of a fully loaded
// 20-core socket.
func BenchmarkMachineStep(b *testing.B) {
	m := machine.MustNew(machine.DefaultConfig())
	seg := workload.Segment{Instructions: 1e18, MissPerInstr: 0.05, IPC: 2}
	src := sched.NewWorkSharing(20, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 20}}, 1), 1)
	m.SetSource(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkEngineRunBatching measures a full daemon-paced run (a component
// every 20 ms, the paper's Tinv) with Run's run-to-next-event batching (one
// engine dispatch per Tinv window) versus a Step loop (one dispatch per
// quantum).
func BenchmarkEngineRunBatching(b *testing.B) {
	for _, step := range []bool{true, false} {
		name := "per-quantum"
		if !step {
			name = "to-next-event"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := machine.MustNew(machine.DefaultConfig())
				m.Schedule(&machine.Component{Period: 20e-3, Tick: func(float64) float64 { return 0 }}, 20e-3)
				seg := workload.Segment{Instructions: 5e6, MissPerInstr: 0.03, IPC: 2}
				src := sched.NewWorkSharing(20, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 400}}, 40), 1)
				m.SetSource(src)
				if step {
					for !m.Finished() && m.Now() < 60 {
						m.Step()
					}
				} else {
					m.Run(60)
				}
				if !m.Finished() {
					b.Fatal("run did not finish")
				}
			}
		})
	}
}

// BenchmarkDaemonTick measures one Tinv activation of the Cuttlefish
// daemon, including the MSR reads of the profiler.
func BenchmarkDaemonTick(b *testing.B) {
	m := machine.MustNew(machine.DefaultConfig())
	sess, err := Start(m)
	if err != nil {
		b.Fatal(err)
	}
	seg := workload.Segment{Instructions: 1e18, MissPerInstr: 0.05, IPC: 2}
	m.SetSource(sched.NewWorkSharing(20, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 20}}, 1), 1))
	for i := 0; i < 5000; i++ { // run past warmup
		m.Step()
	}
	d := sess.Daemon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick(2.5 + float64(i)*0.02)
	}
}

// BenchmarkWorkStealingNextSegment measures the scheduler's task-dispatch
// and expansion path under steady stealing pressure: every round unfolds a
// binary DAG over 1024 leaves from one expand function, so the reported
// allocations are the runtime's own.
func BenchmarkWorkStealingNextSegment(b *testing.B) {
	leaf := workload.Segment{Instructions: 1000, IPC: 2}
	spawn := workload.Segment{Instructions: 100, IPC: 2}
	var expand func(kids []sched.Task, t sched.Task, _ *rand.Rand) []sched.Task
	node := func(lo, hi int) sched.Task {
		if hi-lo <= 1 {
			return sched.Task{Seg: leaf}
		}
		return sched.Task{Seg: spawn, Lo: lo, Hi: hi, Expand: expand}
	}
	expand = func(kids []sched.Task, t sched.Task, _ *rand.Rand) []sched.Task {
		mid := t.Lo + (t.Hi-t.Lo)/2
		return append(kids, node(t.Lo, mid), node(mid, t.Hi))
	}
	roots := []sched.Task{node(0, 1024)}
	gen := func(int) ([]sched.Task, bool) { return roots, true } // endless rounds
	ws := sched.NewWorkStealing(20, gen, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := i % 20
		if _, ok := ws.NextSegment(core, 0); ok {
			ws.Complete(core, 0)
		}
	}
}

// BenchmarkMSRRead measures the emulated msr-safe read path the profiler
// uses 23 times per Tinv.
func BenchmarkMSRRead(b *testing.B) {
	m := machine.MustNew(machine.DefaultConfig())
	dev := m.Device()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Read(msr.IA32FixedCtr0, i%20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBenchmarkBuild measures workload-graph construction for the
// heaviest generator (AMG's region program).
func BenchmarkBenchmarkBuild(b *testing.B) {
	spec, _ := bench.Get("AMG")
	for i := 0; i < b.N; i++ {
		if _, err := spec.Build(bench.Params{Cores: 20, Scale: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernorDispatch proves the Governor interface indirection adds
// no measurable cost to the engine hot path: the same daemon-paced run is
// wired by hand (the pre-registry Start path: save MSRs, build the daemon,
// schedule its component, stop, restore) and through the registered
// governor's Attach/Detach. Compare the two sub-benchmarks against each
// other and against the BenchmarkTable1 baseline (≈235 ms): the deltas sit
// in run-to-run noise, because dispatch happens once per run while the
// engine executes millions of quanta.
func BenchmarkGovernorDispatch(b *testing.B) {
	run := func(b *testing.B, attach func(m *machine.Machine) func() error) {
		spec, _ := bench.Get("SOR-irt")
		for i := 0; i < b.N; i++ {
			m := machine.MustNew(machine.DefaultConfig())
			detach := attach(m)
			src, err := spec.Build(bench.Params{Cores: 20, Scale: 0.05, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			m.SetSource(src)
			m.Run(400)
			if !m.Finished() {
				b.Fatal("run did not finish")
			}
			if err := detach(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("direct", func(b *testing.B) {
		run(b, func(m *machine.Machine) func() error {
			dev := m.Device()
			dev.Save()
			dcfg := core.DefaultConfig()
			d, err := core.NewDaemon(dcfg, dev, 20, m.Config().CoreGrid, m.Config().UncoreGrid, m.Now())
			if err != nil {
				b.Fatal(err)
			}
			comp := &machine.Component{Period: dcfg.TinvSec, Core: dcfg.PinnedCore, Tick: d.Tick}
			m.Schedule(comp, m.Now()+dcfg.TinvSec)
			return func() error {
				d.Stop()
				m.Unschedule(comp)
				if err := d.Err(); err != nil {
					return err
				}
				return dev.Restore()
			}
		})
	})
	b.Run("registry", func(b *testing.B) {
		run(b, func(m *machine.Machine) func() error {
			g, err := governor.New(governor.Cuttlefish, governor.Tuning{})
			if err != nil {
				b.Fatal(err)
			}
			att, err := g.Attach(m)
			if err != nil {
				b.Fatal(err)
			}
			return att.Detach
		})
	})
}
