// Command cuttlefish regenerates the paper's evaluation: every table and
// figure has a subcommand that renders the corresponding report.
//
// Usage:
//
//	cuttlefish [flags] <experiment> [flags]
//
// Experiments: table1, fig2, fig3a, fig3b, fig10, fig11, table2, table3,
// ablation, ddcm, oracle, run, sweep, all
//
// Flags may appear before or after the experiment name. -governor runs the
// single-environment experiments (table1, run) under any registered
// strategy; -format renders every report as text, json or csv; -remote
// executes against a cfserve instance instead of in-process. The remaining
// flags select the run scale (1.0 = the paper's 60–80 s executions),
// repetition count and seeds; defaults finish the full set in minutes.
//
// Every experiment takes one path: the flags form a service.RunSpec, which
// is submitted to an orchestrator.Backend — an in-process service.Service,
// or a cfserve instance with -remote — and the canonical report bytes that
// come back are rendered in -format.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/fuzz"
	"repro/internal/governor"
	"repro/internal/lru"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

// options are the flags that are not part of the run's identity. cli
// builds a fresh value for every invocation and passes it down, so no
// flag state outlives a call.
type options struct {
	format       string
	remote       string
	scenarioFile string
	sweepSpec    string
	storeDir     string
	memo         bool
	memoDir      string
	memoMaxBytes int64
	traceOut     string
	timelineOut  string
	workers      int
	backends     stringList
	listGov      bool
	listScen     bool

	fuzzN         int
	baselineFile  string
	writeBaseline string
	replayPath    string
	corpusOut     string
	minimize      bool

	// set records which flags the user spelled out, accumulated across
	// parseArgs's Parse calls; runFuzz consults it to override the
	// fuzzer's own scale/cores/reps defaults only on explicit request.
	set map[string]bool
}

// allExperiments is what `cuttlefish all` runs, in order.
var allExperiments = []string{"table1", "fig2", "fig3a", "fig3b", "fig10", "fig11", "table2", "table3", "ablation", "ddcm"}

// stringList collects a repeatable flag (-backend may be given once per
// cfserve instance).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// defaultSpec is the spec the flags start from: every default made
// explicit, except the experiment (the positional argument) and the
// governor (empty means each experiment's paper environment).
func defaultSpec() service.RunSpec {
	s := service.RunSpec{}.Normalized()
	s.Experiment, s.Governor = "", ""
	return s
}

// newFlagSet registers every CLI flag on a fresh flag set: the run's
// identity binds to spec, everything else to o, each set to its default.
// ContinueOnError makes Parse return an error naming the offending flag
// instead of exiting, so the parse below can report it uniformly
// wherever the flag appeared.
func newFlagSet(spec *service.RunSpec, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("cuttlefish", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // cli prints the error and usage itself
	*o = options{set: map[string]bool{}}
	fs.Float64Var(&spec.Scale, "scale", spec.Scale, "benchmark length relative to the paper's runs (1.0 ≈ 60-80s each)")
	fs.IntVar(&spec.Reps, "reps", spec.Reps, "repetitions per data point (paper: 10)")
	fs.IntVar(&spec.Cores, "cores", spec.Cores, "simulated core count")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "base RNG seed")
	fs.Float64Var(&spec.TinvSec, "tinv", spec.TinvSec, "daemon profiling interval in seconds")
	fs.Float64Var(&spec.WarmupSec, "warmup", spec.WarmupSec, "cuttlefish daemon warmup before its first wake, in simulated seconds (negative = none; part of the spec identity)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.StringVar(&spec.Governor, "governor", "", "registered governor for single-environment experiments (default: each experiment's paper environment; see -list-governors)")
	fs.StringVar(&o.format, "format", "text", "report format: text | json | csv")
	fs.StringVar(&o.remote, "remote", "", "execute against a cfserve instance at this URL instead of in-process (e.g. http://localhost:8080)")
	fs.StringVar(&spec.Benchmark, "bench", "", "workload for the \"run\" experiment: a Table 1 benchmark or a registered scenario (see -list-scenarios)")
	fs.StringVar(&o.scenarioFile, "scenario", "", "scenario definition file (JSON phase program) for the \"run\" experiment")
	fs.StringVar(&o.sweepSpec, "spec", "", "sweep spec file (JSON) for the \"sweep\" subcommand")
	fs.Var(&o.backends, "backend", "cfserve URL to dispatch to (repeatable; sweep and fuzz spread over all, other experiments use the first; default: run in-process)")
	fs.StringVar(&o.storeDir, "store", "", "persistent result store directory for in-process runs: results survive invocations and repeats are served from it")
	fs.BoolVar(&o.memo, "memo", false, "enable prefix-snapshot memoization for in-process runs: shared schedule prefixes simulate once and resume")
	fs.StringVar(&o.memoDir, "memo-dir", "", "persistent snapshot directory below the memo LRU (implies -memo; survives invocations)")
	fs.Int64Var(&o.memoMaxBytes, "memo-max-bytes", 0, "memo LRU byte budget (0 = 64 MiB)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the in-process run's span trace as Chrome trace-event JSON to this file")
	fs.StringVar(&o.timelineOut, "timeline-out", "", "record the in-process run's flight-recorder timeline (per-quantum frequencies, IPC, energy, governor decisions) and write it as JSON to this file")
	fs.BoolVar(&o.listGov, "list-governors", false, "list registered governors and exit")
	fs.BoolVar(&o.listScen, "list-scenarios", false, "list registered workloads (benchmarks and scenarios) and exit")
	fs.IntVar(&o.fuzzN, "n", 100, "scenarios the fuzz subcommand generates before hash-dedup")
	fs.StringVar(&o.baselineFile, "baseline", "", "baseline file the fuzz findings are diffed against (new findings or metric regressions exit 1)")
	fs.StringVar(&o.writeBaseline, "write-baseline", "", "write the fuzz pass's snapshot (corpus digest, cells, findings) to this file")
	fs.StringVar(&o.replayPath, "replay", "", "replay a corpus entry file or directory instead of generating (fuzz)")
	fs.StringVar(&o.corpusOut, "corpus-out", "", "write every corpus entry as a replayable JSON file into this directory (fuzz)")
	fs.BoolVar(&o.minimize, "minimize", false, "greedily shrink each finding-bearing scenario and persist the minimized form to -corpus-out (fuzz)")
	return fs
}

// parseArgs parses flags and the experiment name in one loop: every
// positional argument boundary re-enters Parse, so flags are accepted
// before and after the subcommand identically, and a bad flag fails with
// the same error (naming the flag) wherever it appears. The previous
// two-stage parse re-parsed only the tail after the subcommand, exiting
// without a message on errors there.
func parseArgs(fs *flag.FlagSet, args []string) (experiment string, err error) {
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return "", err
		}
		pos := fs.Args()
		if len(pos) == 0 {
			return experiment, nil
		}
		if experiment != "" {
			return "", fmt.Errorf("unexpected argument %q after experiment %q", pos[0], experiment)
		}
		experiment = pos[0]
		rest = pos[1:]
	}
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is the whole command: it parses args, runs the experiment and
// returns the exit status (0 ok, 1 failed, 2 usage).
func cli(args []string, stdout, stderr io.Writer) int {
	spec := defaultSpec()
	var o options
	fs := newFlagSet(&spec, &o)
	name, err := parseArgs(fs, args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(fs, stderr)
			return 0
		}
		fmt.Fprintf(stderr, "cuttlefish: %v\n", err)
		usage(fs, stderr)
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if o.listGov {
		for _, info := range governor.List() {
			fmt.Fprintf(stdout, "%-18s %s\n", info.Name, info.Description)
		}
		return 0
	}
	if o.listScen {
		for _, info := range scenario.List() {
			fmt.Fprintf(stdout, "%-16s %-10s %s\n", info.Name, info.Kind, info.Description)
		}
		return 0
	}
	if name == "" {
		usage(fs, stderr)
		return 2
	}
	if !report.ValidFormat(o.format) {
		fmt.Fprintf(stderr, "cuttlefish: unknown format %q (want text, json or csv)\n", o.format)
		return 2
	}
	if o.workers > 0 {
		// The in-process service and every harness pool size themselves
		// from GOMAXPROCS, so this bounds concurrent simulations
		// everywhere; results do not depend on it.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.workers))
	}
	if err := run(name, spec, &o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "cuttlefish: %v\n", err)
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `usage: cuttlefish [flags] <experiment> [flags]

experiments:
  table1   benchmark census (time, TIPI range, slab counts)
  fig2     TIPI and JPI execution timelines
  fig3a    JPI per frequent TIPI at CF {1.2, 1.8, 2.3} GHz, UF max
  fig3b    JPI per frequent TIPI at UF {1.2, 2.1, 3.0} GHz, CF max
  fig10    OpenMP: energy / time / EDP vs Default for all three policies
  fig11    HClib: same comparison over the SOR and Heat variants
  table2   CFopt / UFopt per frequent TIPI range vs Default settings
  table3   Tinv sensitivity (10 / 20 / 40 / 60 ms)
  ablation cost of disabling the §4.4 / §4.5 / Algorithm-3 optimisations
  ddcm     DVFS vs duty-cycle modulation at matched throttle
  oracle   daemon's chosen optima vs exhaustive (CF,UF) sweep
  run      one workload under one governor (-bench <name> or
           -scenario <file.json>, Reps rows)
  sweep    expand a parameter grid (-spec file.json) across backends
  fuzz     generate -n scenarios from -seed, run each under every
           registered governor, report inversions/anomalies/errors
  all      everything above in sequence (fuzz excluded)

strategies are constructed through the governor registry; -governor swaps
the execution environment of single-environment experiments (table1), e.g.
  cuttlefish -governor=powersave table1 -format json
registered: %s

workloads come from the scenario registry: Table 1 benchmarks, built-in
synthetic scenarios (-list-scenarios) and JSON phase programs:
  cuttlefish run -bench bursty
  cuttlefish run -scenario examples/scenarios/bursty.json

every experiment is a run spec submitted to a service: in-process by
default (-store persists its results across invocations), or a cfserve
instance with -remote <url>; identical specs are served from the
content-addressed result cache:
  cuttlefish -remote http://localhost:8080 run -bench Heat-irt -format json

sweep fans a declarative parameter grid (governors × benchmarks ×
scenarios × tinv/cores/reps/seeds/scales, listed or sampled) across one
or more cfserve backends with least-loaded dispatch, retry and failover,
then aggregates a cross-product comparison (best-per-cell + Pareto rows):
  cuttlefish sweep -spec sweep.json -backend http://a:8080 -backend http://b:8080

fuzz samples whole scenario phase programs from seeded distributions —
bit-deterministic for equal (-n, -seed) — and runs each under every
registered governor, flagging execution errors, governor-ordering
inversions (cuttlefish losing to default/static on energy) and
anomalies. -baseline diffs the findings and cell metrics against a
committed snapshot (new findings or regressions exit 1);
-write-baseline refreshes it; -replay re-runs committed corpus files;
-minimize shrinks finding-bearing scenarios into -corpus-out:
  cuttlefish fuzz -n 1000 -seed 7 -format json
  cuttlefish fuzz -n 50 -seed 7 -baseline internal/fuzz/testdata/baseline-n50-seed7.json
  cuttlefish fuzz -replay internal/fuzz/testdata/corpus

-trace-out writes the in-process service's span tree for the run —
admission, cache probe, queue wait, execute, per-repetition lanes,
per-region simulate spans with the engine's batch and quantum counts,
report encode — as Chrome trace-event JSON (open at chrome://tracing or
ui.perfetto.dev). Tracing never changes report bytes:
  cuttlefish run -bench bursty -trace-out trace.json

-timeline-out arms the deterministic flight recorder: the simulated
machine is sampled at every region boundary (per-core and uncore
frequency, IPC, instructions, RAPL energy) and every governor decision
(DVFS/UFS transitions, TIPI slab inserts, exploration phases) lands as
an event. The JSON file is a pure function of the spec — two runs
produce byte-identical timelines — and with -trace-out the counters are
also folded into the Chrome trace as Perfetto value tracks. A run served
from -store executes nothing and so has no timeline:
  cuttlefish run -bench bursty -timeline-out timeline.json
  cuttlefish run -bench bursty -trace-out trace.json -timeline-out timeline.json

-memo adds a second cache tier for in-process execution: phase-boundary
machine snapshots keyed by schedule prefix, so a run whose schedule
shares a prefix with an earlier one (a re-run, or a scenario with a
tweaked tail) resumes from the last common boundary instead of
re-simulating from boot. Results stay byte-identical; -memo-dir
persists snapshots across invocations:
  cuttlefish run -bench bursty -memo-dir /tmp/cfmemo

flags (before or after the experiment):
`, strings.Join(governor.Names(), ", "))
	fs.SetOutput(w)
	fs.PrintDefaults()
	fs.SetOutput(io.Discard)
}

// run executes the named experiment — or, for all, each experiment in
// turn; sweep and fuzz fan out their own specs — over the backend pool
// and renders the reports in the chosen format.
func run(name string, spec service.RunSpec, o *options, stdout, stderr io.Writer) error {
	if spec.Governor != "" {
		// Fail fast on typos before burning simulation time, also for
		// experiments whose harness picks its own governors.
		if _, err := governor.New(spec.Governor, governor.Tuning{}); err != nil {
			return err
		}
	}
	if o.scenarioFile != "" {
		if name != "run" {
			return fmt.Errorf("-scenario only applies to the run experiment, not %q", name)
		}
		raw, err := os.ReadFile(o.scenarioFile)
		if err != nil {
			return err
		}
		def, err := scenario.ParseDefinition(raw)
		if err != nil {
			return err
		}
		spec.ScenarioDef = &def
	}
	if o.traceOut != "" || o.timelineOut != "" {
		switch {
		case name == "all" || name == "sweep" || name == "fuzz":
			return fmt.Errorf("-trace-out and -timeline-out record one experiment at a time, not %q", name)
		case o.remote != "" || len(o.backends) > 0:
			return fmt.Errorf("-trace-out and -timeline-out record in-process runs; fetch a remote run's trace or timeline from GET /v1/runs/{id}/trace or /timeline on a cfserve started with -traces or -timelines")
		}
	}
	// One-entry stores: the in-process service records the run into them
	// and runOne writes their bytes out.
	var traces *obs.TraceStore
	if o.traceOut != "" {
		traces = obs.NewTraceStore(1, "")
	}
	var timelines *lru.Cache[[]byte]
	if o.timelineOut != "" {
		timelines = lru.New[[]byte](1, 0)
	}
	pool, cleanup, err := buildBackendPool(o, traces, timelines)
	if err != nil {
		return err
	}
	defer cleanup()
	switch name {
	case "sweep":
		return runSweep(pool, o, stdout, stderr)
	case "fuzz":
		return runFuzz(pool, spec, o, stdout, stderr)
	}
	names := []string{name}
	if name == "all" {
		names = allExperiments
	}
	for _, e := range names {
		spec.Experiment = e
		if err := runOne(pool[0], spec.Normalized(), o, traces, timelines, stdout, stderr); err != nil {
			return err
		}
		if name == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// runOne submits one normalized spec to the backend and renders what
// comes back: the serving note and memo activity on stderr, the recorded
// trace and timeline to their files, the report on stdout.
func runOne(b orchestrator.Backend, spec service.RunSpec, o *options, traces *obs.TraceStore, timelines *lru.Cache[[]byte], stdout, stderr io.Writer) error {
	// Hash cannot encode a spec Validate rejects (a NaN or ±Inf flag).
	if err := spec.Validate(); err != nil {
		return err
	}
	hash := spec.Hash()
	res, err := b.Run(context.Background(), spec)
	if tr, ok := traces.Get(hash); ok {
		// Written on failure too: the root span carries the error.
		var buf bytes.Buffer
		werr := tr.WriteChrome(&buf)
		if werr == nil {
			werr = os.WriteFile(o.traceOut, buf.Bytes(), 0o644)
		}
		if werr != nil {
			return errors.Join(err, werr)
		}
		fmt.Fprintf(stderr, "cuttlefish: trace written to %s\n", o.traceOut)
	}
	if err != nil {
		return err
	}
	note := fmt.Sprintf("cuttlefish: %s via %s (%s)", spec.Experiment, b.Name(), res.Outcome)
	if res.Convergence != nil {
		note += " [" + service.FormatTimelineHeader(*res.Convergence) + "]"
	}
	fmt.Fprintln(stderr, note)
	if res.Memo != nil && res.Memo.Runs > 0 {
		fmt.Fprintf(stderr, "cuttlefish: memo: %s\n", service.FormatMemoHeader(*res.Memo))
	}
	if o.timelineOut != "" {
		data, ok := timelines.Get(hash)
		if !ok {
			return fmt.Errorf("-timeline-out: %s was served from the result cache (%s), so no simulation ran to record; drop -store or change the spec", spec.Experiment, res.Outcome)
		}
		if err := os.WriteFile(o.timelineOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cuttlefish: timeline written to %s\n", o.timelineOut)
	}
	rep, err := report.Decode(res.Body)
	if err != nil {
		return err
	}
	return rep.Write(stdout, o.format)
}

// runSweep expands a sweep spec and dispatches it over the backend pool.
// Progress and the operational summary go to stderr; the aggregated
// report — deterministic across backend topologies — goes to stdout in
// -format.
func runSweep(pool []orchestrator.Backend, o *options, stdout, stderr io.Writer) error {
	if o.sweepSpec == "" {
		return fmt.Errorf("the sweep subcommand needs -spec <file.json>")
	}
	raw, err := os.ReadFile(o.sweepSpec)
	if err != nil {
		return err
	}
	sweep, err := orchestrator.ParseSweepSpec(raw)
	if err != nil {
		return err
	}
	var dupNoted bool // OnEvent calls are serialized by the orchestrator
	orch, err := orchestrator.New(orchestrator.Config{
		Backends: pool,
		OnEvent: func(ev orchestrator.Event) {
			if ev.Duplicates > 0 && !dupNoted {
				dupNoted = true
				fmt.Fprintf(stderr, "sweep: %d duplicate grid cell(s) collapsed by hash-dedup (cross-product %d)\n",
					ev.Duplicates, ev.Total+ev.Duplicates)
			}
			target := ev.Spec.Experiment
			switch {
			case ev.Spec.Benchmark != "":
				target += "/" + ev.Spec.Benchmark
			case ev.Spec.Scenario != "":
				target += "/" + ev.Spec.Scenario
			case ev.Spec.ScenarioDef != nil:
				target += "/" + ev.Spec.ScenarioDef.Name
			}
			if ev.Spec.Governor != "" {
				target += "/" + ev.Spec.Governor
			}
			if ev.Err != nil {
				fmt.Fprintf(stderr, "sweep: attempt %d for %s failed on %s: %v\n", ev.Attempt, target, ev.Backend, ev.Err)
				return
			}
			line := fmt.Sprintf("sweep: %d/%d %s seed=%d (%s via %s)",
				ev.Done, ev.Total, target, ev.Spec.Seed, ev.Outcome, ev.Backend)
			if ev.Memo != nil && ev.Memo.PrefixHits > 0 {
				line += fmt.Sprintf(" [memo: %d/%d quanta skipped]", ev.Memo.QuantaSaved, ev.Memo.QuantaTotal)
			}
			fmt.Fprintln(stderr, line)
		},
	})
	if err != nil {
		return err
	}
	res, err := orch.Run(context.Background(), sweep)
	if res != nil {
		fmt.Fprintf(stderr, "sweep: %s\n", res.Summary)
	}
	if err != nil {
		return err
	}
	rep, err := orchestrator.Aggregate(sweep.Name, res.Results)
	if err != nil {
		return err
	}
	return rep.Write(stdout, o.format)
}

// buildBackendPool assembles the backends every experiment runs on:
// every -backend URL plus -remote, or — with neither — one in-process
// service wired with the -store and -memo cache tiers and the trace and
// timeline stores the recording flags read back (nil when off). The
// cleanup func tears down whatever was built, closing the stores last.
func buildBackendPool(o *options, traces *obs.TraceStore, timelines *lru.Cache[[]byte]) ([]orchestrator.Backend, func(), error) {
	urls := append(stringList(nil), o.backends...)
	if o.remote != "" {
		urls = append(urls, o.remote)
	}
	if len(urls) > 0 {
		var pool []orchestrator.Backend
		for _, u := range urls {
			pool = append(pool, orchestrator.NewRemoteBackend(u))
		}
		return pool, func() {}, nil
	}
	cfg := service.Config{
		Workers:    o.workers,
		QueueDepth: 64,
		Traces:     traces,
		Timelines:  timelines,
	}
	var stores []*store.Store
	closeStores := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, 0)
		if err != nil {
			return nil, nil, err
		}
		stores = append(stores, st)
		cfg.Store = st
	}
	if o.memo || o.memoDir != "" {
		// With -memo-dir the tier persists snapshots across invocations,
		// so a tweaked re-run of a long scenario resumes from the last
		// shared phase boundary instead of re-simulating its whole prefix.
		var disk *store.Store
		if o.memoDir != "" {
			var err error
			if disk, err = store.Open(o.memoDir, 0); err != nil {
				closeStores()
				return nil, nil, err
			}
			stores = append(stores, disk)
		}
		cfg.Memo = memo.New(o.memoMaxBytes, disk)
	}
	svc := service.New(cfg)
	cleanup := func() {
		svc.Close()
		closeStores()
	}
	return []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}, cleanup, nil
}

// runFuzz expands (or -replay loads) a scenario corpus and runs the
// differential pass over the backend pool. The findings report — byte
// identical across invocations, backends and cache temperatures — goes
// to stdout in -format; corpus statistics, cache outcomes and the
// baseline verdict go to stderr. Findings alone do not fail the command
// (they are the fuzzer's product); new findings or metric regressions
// against a -baseline do.
func runFuzz(pool []orchestrator.Backend, spec service.RunSpec, o *options, stdout, stderr io.Writer) error {
	cfg := fuzz.Config{N: o.fuzzN, Seed: spec.Seed, Workers: o.workers}
	// The fuzzer's own defaults (8 cores, 0.05 scale, 1 rep) are sized
	// for breadth, not paper fidelity; the shared flags override them
	// only when the user spelled them out, and then must pass the check
	// run applies to them. The probe's experiment needs no workload, so
	// it checks nothing else.
	probe := defaultSpec()
	probe.Experiment = "table1"
	if o.set["scale"] {
		cfg.Scale, probe.Scale = spec.Scale, spec.Scale
	}
	if o.set["cores"] {
		cfg.Cores, probe.Cores = spec.Cores, spec.Cores
	}
	if o.set["reps"] {
		cfg.Reps, probe.Reps = spec.Reps, spec.Reps
	}
	if o.set["tinv"] {
		cfg.TinvSec, probe.TinvSec = spec.TinvSec, spec.TinvSec
	}
	if err := probe.Normalized().Validate(); err != nil {
		return err
	}
	var corpus *fuzz.Corpus
	var err error
	if o.replayPath != "" {
		if corpus, err = fuzz.LoadCorpus(o.replayPath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fuzz: replaying %d scenario(s) from %s\n", len(corpus.Entries), o.replayPath)
	} else {
		if corpus, err = fuzz.Generate(cfg); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fuzz: corpus: %d scenario(s) from seed %d (%d duplicate(s) collapsed), digest %.12s…\n",
			len(corpus.Entries), cfg.Seed, corpus.Duplicates, corpus.Digest())
	}
	if o.corpusOut != "" {
		if err := os.MkdirAll(o.corpusOut, 0o755); err != nil {
			return err
		}
		for _, e := range corpus.Entries {
			if err := fuzz.WriteEntry(filepath.Join(o.corpusOut, e.Def.Name+".json"), e); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "fuzz: wrote %d corpus entr(ies) to %s\n", len(corpus.Entries), o.corpusOut)
	}
	ctx := context.Background()
	rep, err := fuzz.Run(ctx, pool, corpus, cfg)
	if err != nil {
		return err
	}
	outcomes := map[string]int{}
	for _, c := range rep.Cells {
		if c.Outcome != "" {
			outcomes[c.Outcome]++
		}
	}
	fmt.Fprintf(stderr, "fuzz: %d cell(s) executed (%s), %d finding(s)\n",
		len(rep.Cells), formatOutcomes(outcomes), len(rep.Findings))
	if o.minimize {
		if err := minimizeFindings(ctx, pool, rep, corpus, cfg, o.corpusOut, stderr); err != nil {
			return err
		}
	}
	if err := rep.RunReport().Write(stdout, o.format); err != nil {
		return err
	}
	if o.writeBaseline != "" {
		if err := fuzz.BaselineOf(rep, cfg).Save(o.writeBaseline); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fuzz: baseline written to %s\n", o.writeBaseline)
	}
	if o.baselineFile != "" {
		base, err := fuzz.LoadBaseline(o.baselineFile)
		if err != nil {
			return err
		}
		violations, resolved, err := fuzz.Diff(base, rep)
		if err != nil {
			return err
		}
		for _, f := range resolved {
			fmt.Fprintf(stderr, "fuzz: resolved vs baseline (refresh it with -write-baseline): %s/%s %s\n", f.Scenario, f.Kind, f.Detail)
		}
		if len(violations) > 0 {
			for _, f := range violations {
				fmt.Fprintf(stderr, "fuzz: VIOLATION %s %s governor=%s ref=%s: %s\n", f.Scenario, f.Kind, f.Governor, f.Reference, f.Detail)
			}
			return fmt.Errorf("%d violation(s) vs baseline %s", len(violations), o.baselineFile)
		}
		fmt.Fprintf(stderr, "fuzz: baseline %s holds (%d finding(s) match, no metric regressions)\n", o.baselineFile, len(base.Findings))
	}
	return nil
}

// minimizeFindings greedily shrinks every finding-bearing scenario (one
// per scenario, all its finding kinds at once) and persists the minimized
// entries to -corpus-out, or describes them on stderr without it.
func minimizeFindings(ctx context.Context, pool []orchestrator.Backend, rep *fuzz.Report, corpus *fuzz.Corpus, cfg fuzz.Config, corpusOut string, stderr io.Writer) error {
	kindsByScenario := map[string]map[string]bool{}
	for _, f := range rep.Findings {
		if kindsByScenario[f.Scenario] == nil {
			kindsByScenario[f.Scenario] = map[string]bool{}
		}
		kindsByScenario[f.Scenario][f.Kind] = true
	}
	runOne := func(ctx context.Context, e fuzz.Entry) ([]fuzz.Finding, error) {
		r, err := fuzz.Run(ctx, pool, &fuzz.Corpus{Requested: 1, Entries: []fuzz.Entry{e}}, cfg)
		if err != nil {
			return nil, err
		}
		return r.Findings, nil
	}
	for _, e := range corpus.Entries {
		kinds := kindsByScenario[e.Def.Name]
		if len(kinds) == 0 {
			continue
		}
		min, spent := fuzz.Minimize(ctx, e, kinds, runOne, 64)
		min.Note = fmt.Sprintf("minimized from %s (%d evaluation(s))", e.Def.Name, spent)
		fmt.Fprintf(stderr, "fuzz: minimized %s -> %s: %d phase(s) x %d iteration(s) (%d evaluation(s))\n",
			e.Def.Name, min.Def.Name, len(min.Def.Phases), min.Def.Iterations, spent)
		if corpusOut != "" {
			if err := fuzz.WriteEntry(filepath.Join(corpusOut, "min-"+min.Def.Name+".json"), min); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatOutcomes renders cache-outcome counts in a fixed order.
func formatOutcomes(counts map[string]int) string {
	var parts []string
	for _, k := range []string{"miss", "hit", "disk", "coalesced"} {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
