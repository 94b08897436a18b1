// Package cuttlefish is a Go reproduction of "Cuttlefish: Library for
// Achieving Energy Efficiency in Multicore Parallel Programs" (SC 2021).
//
// The paper's library lowers the energy footprint of any multicore parallel
// program on Intel processors by profiling Model-Specific Registers online
// and adapting core (DVFS) and uncore (UFS) frequencies per memory-access
// pattern. This package reproduces that runtime — Algorithms 1–3 and the
// §4.4/§4.5 exploration-range optimisations, verbatim — on top of a
// deterministic multicore simulator standing in for the paper's 20-core
// Haswell (see DESIGN.md for the substitution argument).
//
// The programmer-facing surface mirrors the paper's two-call API, with
// functional options in place of configuration structs:
//
//	m, _ := cuttlefish.NewMachine()
//	session, _ := cuttlefish.Start(m)   // the paper's cuttlefish::start()
//	// ... run a parallel workload on m ...
//	session.Stop()                      // cuttlefish::stop()
//
// Every frequency-control strategy — the paper's three Cuttlefish variants,
// the Default environment (performance governor + firmware Auto uncore),
// fixed-frequency pins, DDCM throttling and the reactive Linux-style
// governors — is a Governor registered by name; Start attaches whichever
// one WithGovernor (or WithPolicy) selects, and RegisterGovernor adds new
// scenarios without touching any harness:
//
//	session, _ := cuttlefish.Start(m, cuttlefish.WithGovernor("ondemand"))
//
// Everything else — the MSR file, RAPL, the PMU, the parallel runtimes, the
// Table 1 benchmarks and the per-figure experiment harnesses — lives in the
// internal packages and is reachable through the helpers below.
package cuttlefish

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Machine is the simulated multicore socket programs run on.
type Machine = machine.Machine

// MachineConfig configures the simulated socket. Most callers never touch
// it — NewMachine's options cover the common knobs and WithMachineConfig
// is the escape hatch.
type MachineConfig = machine.Config

// DefaultMachineConfig returns the paper's evaluation machine: a 20-core
// Haswell-class socket, core DVFS 1.2–2.3 GHz, uncore UFS 1.2–3.0 GHz.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// Policy selects which frequency domains the daemon adapts — the paper's
// three build-time variants.
type Policy = core.Policy

// The three policies of §5: full Cuttlefish, core-only and uncore-only.
const (
	PolicyBoth       = core.PolicyBoth
	PolicyCoreOnly   = core.PolicyCoreOnly
	PolicyUncoreOnly = core.PolicyUncoreOnly
)

// Governor is one frequency-control strategy: Attach installs it on a
// machine (saving the MSR state it will touch) and the returned
// attachment's Detach restores everything. All strategies — built-in and
// user-registered — are constructed by name through the registry.
type Governor = governor.Governor

// GovernorTuning carries the per-run parameters a strategy may honour;
// see the Option helpers for the usual way to set them.
type GovernorTuning = governor.Tuning

// GovernorFactory builds a governor from per-run tuning.
type GovernorFactory = governor.Factory

// The built-in governor names.
const (
	// GovernorDefault is the paper's baseline environment: performance
	// governor plus firmware Auto uncore.
	GovernorDefault = governor.Default
	// GovernorCuttlefish and friends are the paper's three library builds.
	GovernorCuttlefish       = governor.Cuttlefish
	GovernorCuttlefishCore   = governor.CuttlefishCore
	GovernorCuttlefishUncore = governor.CuttlefishUncore
	// GovernorStatic pins both domains at fixed ratios.
	GovernorStatic = governor.Static
	// GovernorDDCM throttles with duty-cycle modulation at full voltage.
	GovernorDDCM = governor.DDCM
	// GovernorPowersave pins both domains at their minima.
	GovernorPowersave = governor.Powersave
	// GovernorOndemand reacts to sampled per-core throughput.
	GovernorOndemand = governor.Ondemand
)

// Governors lists the registered strategy names, sorted.
func Governors() []string { return governor.Names() }

// RegisterGovernor adds a named strategy to the registry; duplicate names
// are rejected. Registered strategies become reachable from Start, every
// experiment harness and the cuttlefish CLI.
func RegisterGovernor(name string, f GovernorFactory) error { return governor.Register(name, f) }

// NewGovernor constructs a registered strategy by name, honouring the
// tuning options (WithTinv, WithWarmup, WithStatic, …).
func NewGovernor(name string, opts ...Option) (Governor, error) {
	cfg := newConfig(opts)
	return governor.New(name, cfg.tuning)
}

// config is the resolved state behind the functional options.
type config struct {
	machine    machine.Config
	tuning     governor.Tuning
	governor   string
	havePolicy bool
	policy     Policy
}

func newConfig(opts []Option) *config {
	cfg := &config{machine: machine.DefaultConfig(), governor: governor.Cuttlefish}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.havePolicy {
		switch cfg.policy {
		case core.PolicyCoreOnly:
			cfg.governor = governor.CuttlefishCore
		case core.PolicyUncoreOnly:
			cfg.governor = governor.CuttlefishUncore
		default:
			cfg.governor = governor.Cuttlefish
		}
	}
	return cfg
}

// Option configures NewMachine, Start and NewGovernor. Options that do not
// apply to a call are ignored, so one option set can configure a whole run.
type Option func(*config)

// WithCores sets the simulated core count (default: the paper's 20).
func WithCores(n int) Option { return func(c *config) { c.machine.Cores = n } }

// WithMachineConfig replaces the whole machine configuration — the escape
// hatch for non-default grids or power models. Options apply in argument
// order, so a later WithCores still wins over it.
func WithMachineConfig(cfg MachineConfig) Option {
	return func(c *config) { c.machine = cfg }
}

// WithGovernor selects the registered strategy Start attaches
// (default: "cuttlefish").
func WithGovernor(name string) Option { return func(c *config) { c.governor = name } }

// WithPolicy selects the Cuttlefish build variant, the paper's three
// compile-time policies. It is shorthand for WithGovernor on the matching
// variant name.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p; c.havePolicy = true } }

// WithTinv sets the daemon's profiling interval in seconds (default: the
// paper's 20 ms) — also the ondemand governor's sampling period.
func WithTinv(sec float64) Option { return func(c *config) { c.tuning.TinvSec = sec } }

// WithWarmup sets the daemon's warmup in seconds (default: the paper's
// 2 s); negative disables the warmup.
func WithWarmup(sec float64) Option { return func(c *config) { c.tuning.WarmupSec = sec } }

// WithStatic pins the static governor's core and uncore frequency ratios
// (multiples of 100 MHz, e.g. 16 = 1.6 GHz; 0 = the grid maximum). Attach
// clamps the pins into the machine's grids.
func WithStatic(cfRatio, ufRatio int) Option {
	return func(c *config) {
		c.tuning.CF, c.tuning.UF = freq.Ratio(min(max(cfRatio, 0), 255)), freq.Ratio(min(max(ufRatio, 0), 255))
	}
}

// NewMachine builds a simulated socket from the options (WithCores,
// WithMachineConfig).
func NewMachine(opts ...Option) (*Machine, error) {
	return machine.New(newConfig(opts).machine)
}

// Benchmark describes one of the paper's Table 1 workloads.
type Benchmark = bench.Spec

// BenchmarkParams parametrise benchmark construction.
type BenchmarkParams = bench.Params

// Model selects the parallel runtime a benchmark runs under (§5.2).
type Model = bench.Model

// The two programming models of the evaluation.
const (
	ModelOpenMP = bench.OpenMP
	ModelHClib  = bench.HClib
)

// Benchmarks returns the ten Table 1 benchmarks.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkByName fetches a benchmark by its Table 1 name (e.g. "Heat-irt").
func BenchmarkByName(name string) (Benchmark, bool) { return bench.Get(name) }

// Session is an attached governor: for the default Cuttlefish governor,
// the daemon thread plus the MSR save/restore bracket — the paper's
// cuttlefish::start()/cuttlefish::stop() pair. Any registered governor
// runs behind the same Session surface.
type Session struct {
	name string
	att  *governor.Attachment
}

// Start attaches the selected governor to the machine. For the Cuttlefish
// variants that means: the current MSR state is saved (msr-safe style),
// the daemon is created pinned to its core, both frequency domains are
// raised to maximum, and the daemon is scheduled every Tinv starting after
// its warmup.
func Start(m *Machine, opts ...Option) (*Session, error) {
	cfg := newConfig(opts)
	g, err := governor.New(cfg.governor, cfg.tuning)
	if err != nil {
		return nil, fmt.Errorf("cuttlefish: %w", err)
	}
	att, err := g.Attach(m)
	if err != nil {
		return nil, fmt.Errorf("cuttlefish: %w", err)
	}
	return &Session{name: g.Name(), att: att}, nil
}

// Stop detaches the governor: the daemon (if any) is halted and removed
// from the machine's event queue, and the MSR state captured at Start is
// restored — unconditionally, so a failed daemon never leaks pinned
// frequencies; its error is still reported. Stop is idempotent.
func (s *Session) Stop() error { return s.att.Detach() }

// Governor returns the attached strategy's registered name.
func (s *Session) Governor() string { return s.name }

// Daemon exposes the runtime's exploration state (slab list, sample count)
// for reporting; nil for governors that run without a daemon.
func (s *Session) Daemon() *core.Daemon { return s.att.Daemon() }

// Segment is the unit of simulated work: instructions with an LLC-miss
// density (the quantity TIPI measures), an IPC and a prefetch exposure.
type Segment = workload.Segment

// Source supplies segments to the machine's cores; the two runtime types
// below implement it.
type Source = workload.Source

// Region is one work-sharing parallel region (OpenMP-style static loop).
type Region = sched.Region

// RegionGen yields the region sequence of a work-sharing program.
type RegionGen = sched.RegionGen

// StaticProgram cycles a fixed region list for a number of iterations.
func StaticProgram(regions []Region, iterations int) RegionGen {
	return sched.StaticProgram(regions, iterations)
}

// NewWorkSharing builds the OpenMP-style runtime over the machine's cores.
func NewWorkSharing(cores int, gen RegionGen, seed int64) Source {
	return sched.NewWorkSharing(cores, gen, seed)
}

// Task is one async task in the async–finish model: a pointer-free
// {Lo, Hi} handle whose meaning its finish scope's Tree defines.
type Task = sched.Task

// Tree interprets the tasks of one finish scope: Seg gives a task its
// work when a core dispatches it, and Expand appends its children when it
// completes (nothing, for a leaf).
type Tree = sched.Tree

// RoundGen yields the root tasks of each finish scope and the Tree that
// interprets them, or ok == false when the program ends.
type RoundGen = sched.RoundGen

// SingleRound wraps a fixed task set and its tree as a one-round program.
func SingleRound(roots []Task, tree Tree) RoundGen { return sched.SingleRound(roots, tree) }

// NewWorkStealing builds the HClib-style async–finish runtime.
func NewWorkStealing(cores int, gen RoundGen, seed int64) Source {
	return sched.NewWorkStealing(cores, gen, seed)
}

// Partition statically divides the socket's cores among co-running
// workloads (the paper's workflow future-work scenario). Assign each
// component a core range, then SetSource the partition on the machine.
type Partition = workload.Partition

// NewPartition creates an empty core partition.
func NewPartition() *Partition { return workload.NewPartition() }
