package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/workload"
)

// ErrBadDefinition tags definition validation failures so callers (the
// service layer, the CLIs) can map them to "client's fault" responses.
var ErrBadDefinition = errors.New("scenario: invalid definition")

// Decomposition names of the DSL. Work-sharing compiles to the
// OpenMP-style static-chunk runtime (its schedule is independent of the
// order cores step in); task-dag compiles to the work-stealing runtime
// (its schedule, like the bench task variants, depends on that order,
// which the engine fixes to core-index order).
const (
	WorkSharing = "work-sharing"
	TaskDAG     = "task-dag"
)

// Definition is a declarative workload: an ordered phase program that
// compiles to a workload.Source. It is the JSON face of the scenario
// registry — `cuttlefish -scenario file.json`, the `scenario_def` field
// of a service RunSpec and the built-in synthetics all speak it.
//
// A definition is a pure value: its normalized form serializes
// canonically (fixed struct field order, every default spelled out), so
// embedding one in a RunSpec keeps the spec's content hash stable across
// spelling variants of the same program.
type Definition struct {
	// Name labels the scenario in reports and registry listings.
	Name string `json:"name"`
	// Description is the one-line listing text. It is part of the
	// canonical bytes verbatim (struct-level json.Marshal), needs no
	// defaulting, and no harness consults it.
	Description string `json:"description,omitempty"` //cfvet:allow(hashfield) documentation-only; hashed verbatim via struct marshal, deliberately untouched by Normalized/Validate
	// Decomposition is "work-sharing" (default) or "task-dag".
	Decomposition string `json:"decomposition,omitempty"`
	// Iterations repeats the whole phase list in sequence (default 1) —
	// the outer time loop of an iterative application.
	Iterations int `json:"iterations,omitempty"`
	// Phases run in order within each iteration.
	Phases []PhaseDef `json:"phases"`
}

// PhaseDef is one program phase: a homogeneous region of work the
// daemon can observe as one TIPI regime. It compiles to workload.Phase
// segments — Count work units that each look like the phase's segment.
type PhaseDef struct {
	// Name labels the phase (optional, documentation only — it is still
	// part of the canonical bytes, like a benchmark's name).
	Name string `json:"name,omitempty"`
	// Instructions is the phase's total instruction budget at Scale 1,
	// split evenly over its chunks (then jittered).
	Instructions float64 `json:"instructions"`
	// MissPerInstr is the LLC-miss density TOR_INSERT observes (TIPI).
	MissPerInstr float64 `json:"miss_per_instr"`
	// IPC is instructions retired per core cycle when not stalled.
	IPC float64 `json:"ipc"`
	// RemoteFrac is the NUMA-remote share of misses, in [0, 1].
	RemoteFrac float64 `json:"remote_frac,omitempty"`
	// Exposure is the stalled fraction of miss latency, in [0, 1].
	// Omitted means fully exposed (1); an explicit 0 means perfectly
	// prefetched — misses cost no stall but still count toward TIPI
	// (workload.ExposureNone underneath).
	Exposure *float64 `json:"exposure,omitempty"`
	// ChunksPerCore is the decomposition granularity: chunks (or DAG
	// leaves) per simulated core per repeat (default 16).
	ChunksPerCore int `json:"chunks_per_core,omitempty"`
	// JitterFrac perturbs each chunk's instruction count by a uniform
	// ±JitterFrac factor — load imbalance (default 0).
	JitterFrac float64 `json:"jitter_frac,omitempty"`
	// MissJitter wobbles MissPerInstr by a uniform ±MissJitter per
	// repeat, the per-iteration TIPI drift real applications show.
	MissJitter float64 `json:"miss_jitter,omitempty"`
	// Repeat runs the phase this many times back to back per iteration
	// (default 1).
	Repeat int `json:"repeat,omitempty"`
}

// ParseDefinition decodes a JSON definition, rejecting unknown fields —
// a typoed knob silently defaulting would change the run (and its
// content hash) without anyone noticing.
func ParseDefinition(data []byte) (Definition, error) {
	var d Definition
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Definition{}, fmt.Errorf("%w: %v", ErrBadDefinition, err)
	}
	return d, nil
}

// Normalized returns the definition with every defaulted field made
// explicit, so two spellings of the same program compare — and hash —
// equal. It does not validate; call Validate on the result.
func (d Definition) Normalized() Definition {
	if d.Decomposition == "" {
		d.Decomposition = WorkSharing
	}
	if d.Iterations == 0 {
		d.Iterations = 1
	}
	phases := make([]PhaseDef, len(d.Phases))
	copy(phases, d.Phases)
	for i := range phases {
		if phases[i].ChunksPerCore == 0 {
			phases[i].ChunksPerCore = 16
		}
		if phases[i].Repeat == 0 {
			phases[i].Repeat = 1
		}
		if phases[i].Exposure == nil {
			one := 1.0
			phases[i].Exposure = &one
		}
	}
	d.Phases = phases
	return d
}

// finite reports whether v is a usable real number. Validate applies it
// to every float knob: NaN would sail through one-sided comparisons like
// `Instructions <= 0` (NaN compares false against everything) and poison
// the simulation several layers down, where the failure is no longer
// attributable to the input.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks a normalized definition.
func (d Definition) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("%w: a scenario needs a name", ErrBadDefinition)
	}
	if d.Decomposition != WorkSharing && d.Decomposition != TaskDAG {
		return fmt.Errorf("%w: unknown decomposition %q (want %s or %s)", ErrBadDefinition, d.Decomposition, WorkSharing, TaskDAG)
	}
	if d.Iterations < 1 {
		return fmt.Errorf("%w: iterations must be positive, got %d", ErrBadDefinition, d.Iterations)
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("%w: a scenario needs at least one phase", ErrBadDefinition)
	}
	for i, p := range d.Phases {
		where := fmt.Sprintf("phase %d", i)
		if p.Name != "" {
			where = fmt.Sprintf("phase %d (%s)", i, p.Name)
		}
		switch {
		case !finite(p.Instructions) || p.Instructions <= 0:
			return fmt.Errorf("%w: %s: instructions must be positive and finite, got %g", ErrBadDefinition, where, p.Instructions)
		case !finite(p.IPC) || p.IPC <= 0:
			return fmt.Errorf("%w: %s: ipc must be positive and finite, got %g", ErrBadDefinition, where, p.IPC)
		case !finite(p.MissPerInstr) || p.MissPerInstr < 0:
			return fmt.Errorf("%w: %s: miss_per_instr must be non-negative and finite, got %g", ErrBadDefinition, where, p.MissPerInstr)
		case !(p.RemoteFrac >= 0 && p.RemoteFrac <= 1):
			return fmt.Errorf("%w: %s: remote_frac must lie in [0, 1], got %g", ErrBadDefinition, where, p.RemoteFrac)
		case p.Exposure != nil && !(*p.Exposure >= 0 && *p.Exposure <= 1):
			return fmt.Errorf("%w: %s: exposure must lie in [0, 1], got %g", ErrBadDefinition, where, *p.Exposure)
		case p.ChunksPerCore < 1:
			return fmt.Errorf("%w: %s: chunks_per_core must be positive, got %d", ErrBadDefinition, where, p.ChunksPerCore)
		case !(p.JitterFrac >= 0 && p.JitterFrac < 1):
			return fmt.Errorf("%w: %s: jitter_frac must lie in [0, 1), got %g", ErrBadDefinition, where, p.JitterFrac)
		case !finite(p.MissJitter) || p.MissJitter < 0:
			return fmt.Errorf("%w: %s: miss_jitter must be non-negative and finite, got %g", ErrBadDefinition, where, p.MissJitter)
		case p.Repeat < 1:
			return fmt.Errorf("%w: %s: repeat must be positive, got %d", ErrBadDefinition, where, p.Repeat)
		}
	}
	return nil
}

// segment compiles the phase's densities (not its instruction budget).
// An explicit exposure of 0 becomes the ExposureNone sentinel: the
// phase's misses are perfectly prefetched, not "unset".
func (p PhaseDef) segment() workload.Segment {
	exp := 1.0
	if p.Exposure != nil {
		exp = *p.Exposure
	}
	if exp == 0 {
		exp = workload.ExposureNone
	}
	return workload.Segment{
		MissPerInstr: p.MissPerInstr,
		IPC:          p.IPC,
		RemoteFrac:   p.RemoteFrac,
		Exposure:     exp,
	}
}

// WorkloadPhases compiles the definition to workload.Phase values under
// the given run parameters — one Phase per definition phase, the
// segment sized per chunk exactly as Build will execute it (Scale
// included, jitter excluded). It is the inspectable compiled form:
// workload.TotalInstructions over the result equals the instruction
// budget the built source retires.
func (d Definition) WorkloadPhases(p Params) []workload.Phase {
	n := d.Normalized()
	scale := p.Scale
	if scale <= 0 {
		scale = 1
	}
	cores := p.Cores
	if cores <= 0 {
		cores = 1
	}
	out := make([]workload.Phase, len(n.Phases))
	for i, ph := range n.Phases {
		count := ph.ChunksPerCore * cores * ph.Repeat * n.Iterations
		seg := ph.segment()
		seg.Instructions = ph.Instructions * scale / float64(count)
		out[i] = workload.Phase{Seg: seg, Count: count}
	}
	return out
}

// missStallCycles approximates the exposed core cycles one LLC miss
// costs at nominal frequency; the nominal-time estimate uses it.
const missStallCycles = 300

// nominalClockHz is the grid-maximum core clock the estimate assumes.
const nominalClockHz = 2.3e9

// EstimateSeconds approximates the Default-environment wall time of the
// definition at Scale 1 on the given core count: per-phase cycles are
// instructions × (1/IPC + exposed-miss stall), summed and divided across
// cores at the nominal clock. Harnesses use it only to size simulation
// deadlines, with generous headroom on top.
func (d Definition) EstimateSeconds(cores int) float64 {
	if cores <= 0 {
		cores = 1
	}
	n := d.Normalized()
	var cycles float64
	for _, p := range n.Phases {
		seg := p.segment()
		cpi := 1/p.IPC + p.MissPerInstr*seg.StallFraction()*missStallCycles
		cycles += p.Instructions * cpi
	}
	return cycles / nominalClockHz / float64(cores)
}

// jitterDomain separates the DSL's jitter stream from the work-sharing
// runtime's chunk jitter, which hashes the same (seed, step, index)
// triples through the same sched.IndexJitter. Without the tag, a
// phase's per-repeat TIPI wobble would be exactly the uniform draw
// sizing one of the region's chunks — two documented-independent
// perturbations in perfect correlation.
const jitterDomain = 0x5ce4a6d1c3b2f897

// jitter returns a uniform value in [0, 1) derived from the
// domain-tagged seed and two indices. Being a pure function (not a
// sequential draw) keeps every perturbation stable no matter which core
// asks first.
func jitter(seed int64, a, b int) float64 {
	return sched.IndexJitter(seed^jitterDomain, a, b)
}

// step is one flattened program step: (phase, repeat within the phase).
type step struct {
	phase  int
	repeat int
}

// program flattens the normalized definition's per-iteration schedule:
// phases in order, each repeated Repeat times. The full run is
// Iterations passes over it.
func (d Definition) program() []step {
	var prog []step
	for i, p := range d.Phases {
		for r := 0; r < p.Repeat; r++ {
			prog = append(prog, step{phase: i, repeat: r})
		}
	}
	return prog
}

// Build compiles the definition into a workload source for one run. The
// result is a pure function of (definition, Params): all jitter derives
// from Params.Seed through pure index hashing.
func (d Definition) Build(p Params) (workload.Source, error) {
	n := d.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if p.Cores <= 0 {
		return nil, fmt.Errorf("scenario: cores must be positive, got %d", p.Cores)
	}
	if p.Scale <= 0 {
		return nil, fmt.Errorf("scenario: scale must be positive, got %g", p.Scale)
	}
	if n.Decomposition == TaskDAG {
		return n.buildTaskDAG(p), nil
	}
	return n.buildWorkSharing(p), nil
}

// regionFor sizes one program step's parallel region.
func (d Definition) regionFor(p Params, globalStep int, st step) sched.Region {
	ph := d.Phases[st.phase]
	chunks := ph.ChunksPerCore * p.Cores
	seg := ph.segment()
	seg.Instructions = ph.Instructions * p.Scale / float64(d.Iterations*ph.Repeat*chunks)
	if ph.MissJitter > 0 {
		seg.MissPerInstr += (jitter(p.Seed, globalStep, st.phase)*2 - 1) * ph.MissJitter
		if seg.MissPerInstr < 0 {
			seg.MissPerInstr = 0
		}
	}
	return sched.Region{Seg: seg, Chunks: chunks, JitterFrac: ph.JitterFrac}
}

// CompiledRegions materializes the full work-sharing region schedule for
// one run: regions[s] is exactly the region buildWorkSharing's generator
// yields at step s, and phases[s] is the definition phase it came from.
// The prefix-snapshot tier hashes this list to key its snapshots, so it
// must stay byte-for-byte the schedule the built source executes — both
// paths size regions through the same regionFor.
//
// Only work-sharing definitions compile to a region schedule; the
// work-stealing runtime counts no region boundaries, so task-DAG
// definitions have no prefix to key on.
func (d Definition) CompiledRegions(p Params) ([]sched.Region, []int, error) {
	n := d.Normalized()
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if n.Decomposition != WorkSharing {
		return nil, nil, fmt.Errorf("scenario: %s definitions have no deterministic region schedule", n.Decomposition)
	}
	if p.Cores <= 0 {
		return nil, nil, fmt.Errorf("scenario: cores must be positive, got %d", p.Cores)
	}
	if p.Scale <= 0 {
		return nil, nil, fmt.Errorf("scenario: scale must be positive, got %g", p.Scale)
	}
	prog := n.program()
	steps := len(prog) * n.Iterations
	regions := make([]sched.Region, steps)
	phases := make([]int, steps)
	for s := 0; s < steps; s++ {
		st := prog[s%len(prog)]
		regions[s] = n.regionFor(p, s, st)
		phases[s] = st.phase
	}
	return regions, phases, nil
}

// buildWorkSharing compiles to the OpenMP-style runtime: one barrier-
// separated region per program step.
func (d Definition) buildWorkSharing(p Params) workload.Source {
	prog := d.program()
	steps := len(prog) * d.Iterations
	gen := func(s int) (sched.Region, bool) {
		if s >= steps {
			return sched.Region{}, false
		}
		return d.regionFor(p, s, prog[s%len(prog)]), true
	}
	return sched.NewWorkSharing(p.Cores, gen, p.Seed)
}

// stealOverheadInstr maps the model name onto the shared per-model
// steal-path costs (defined in internal/sched next to the runtime that
// charges them, so bench task builders and DSL task DAGs stay
// calibrated identically).
func stealOverheadInstr(model string) float64 {
	if model == "hclib" {
		return sched.StealOverheadHClib
	}
	return sched.StealOverheadOpenMP
}

// buildTaskDAG compiles to the work-stealing runtime: one finish scope
// per program step, a regular binary task tree over the step's chunks.
func (d Definition) buildTaskDAG(p Params) workload.Source {
	prog := d.program()
	rounds := len(prog) * d.Iterations
	gen := func(round int) ([]sched.Task, bool) {
		if round >= rounds {
			return nil, false
		}
		region := d.regionFor(p, round, prog[round%len(prog)])
		spawn := workload.Segment{Instructions: 2000, MissPerInstr: 0.002, IPC: 1.5, RemoteFrac: region.Seg.RemoteFrac}
		return []sched.Task{dagOver(region, spawn, p.Seed, round)}, true
	}
	ws := sched.NewWorkStealing(p.Cores, gen, p.Seed)
	ws.StealOverheadInstr = stealOverheadInstr(p.Model)
	return ws
}

// dagOver builds the root of a regular binary task tree whose leaves carry
// the region's chunks; one expand function unfolds every interior node from
// its own [Lo, Hi) chunk range. Leaf instruction counts take the region's
// jitter through the same pure hash the work-sharing path uses, so the
// DAG's work distribution depends only on (definition, seed), never on
// expansion order.
func dagOver(region sched.Region, spawn workload.Segment, seed int64, round int) sched.Task {
	var expand func(kids []sched.Task, t sched.Task, _ *rand.Rand) []sched.Task
	node := func(lo, hi int) sched.Task {
		if hi-lo <= 1 {
			seg := region.Seg
			if j := region.JitterFrac; j > 0 {
				seg.Instructions *= 1 + (jitter(seed, round, lo)*2-1)*j
			}
			return sched.Task{Seg: seg}
		}
		return sched.Task{Seg: spawn, Lo: lo, Hi: hi, Expand: expand}
	}
	expand = func(kids []sched.Task, t sched.Task, _ *rand.Rand) []sched.Task {
		mid := t.Lo + (t.Hi-t.Lo)/2
		return append(kids, node(t.Lo, mid), node(mid, t.Hi))
	}
	return node(0, region.Chunks)
}
