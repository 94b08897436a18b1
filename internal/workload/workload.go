// Package workload defines the unit of simulated computation: a Segment of
// straight-line work characterised by an instruction count, an LLC-miss
// density (which is exactly what the TOR_INSERT counters observe and hence
// what TIPI measures), an IPC, and a NUMA-remote fraction.
//
// Parallel runtimes (internal/sched) hand segments to simulated cores
// through the Source interface; the machine charges time, retires
// instructions and generates TOR traffic according to the segment's
// composition. Benchmarks (internal/bench) are generators of task graphs
// whose leaves carry segments calibrated to the paper's Table 1 TIPI
// ranges.
package workload

import "fmt"

// Segment is a homogeneous chunk of work: Instructions retire at IPC per
// core cycle, and every instruction carries MissPerInstr expected LLC
// misses, of which RemoteFrac go to the remote socket (TOR_INSERT.MISS_REMOTE).
//
// Exposure is the fraction of miss latency the core actually stalls on
// after hardware prefetching: streaming stencil sweeps (SOR) expose little
// latency even though every miss still occupies TOR and memory bandwidth,
// while irregular access (AMG coarse levels, UTS node expansion) exposes
// most of it.
//
// The zero value means "unset" and defaults to 1 (fully exposed), so a
// struct literal that never mentions Exposure behaves like unprefetched
// irregular access. A segment whose misses stall the core not at all —
// perfectly prefetched streaming that still occupies TOR and bandwidth —
// is therefore NOT expressible as Exposure: 0; use the explicit
// ExposureNone sentinel for it.
type Segment struct {
	Instructions float64
	MissPerInstr float64
	IPC          float64
	RemoteFrac   float64
	Exposure     float64
}

// ExposureNone is the explicit "zero exposed stall" sentinel: every miss
// is fully hidden by prefetching (StallFraction 0) while still counting
// toward TOR traffic and TIPI. It exists because the Exposure zero value
// already means "unset → fully exposed", which made a truly stall-free
// segment inexpressible.
const ExposureNone = -1

// StallFraction returns the effective exposure: ExposureNone is 0, the
// unset zero value defaults to 1, anything else is taken literally.
func (s Segment) StallFraction() float64 {
	if s.Exposure == ExposureNone {
		return 0
	}
	if s.Exposure <= 0 {
		return 1
	}
	return s.Exposure
}

// Valid reports whether the segment is executable. Exposure must be the
// ExposureNone sentinel or lie in [0, 1].
func (s Segment) Valid() bool {
	return s.Instructions >= 0 && s.MissPerInstr >= 0 && s.IPC > 0 &&
		s.RemoteFrac >= 0 && s.RemoteFrac <= 1 &&
		(s.Exposure == ExposureNone || (s.Exposure >= 0 && s.Exposure <= 1))
}

func (s Segment) String() string {
	return fmt.Sprintf("seg{%.3g instr, %.4f miss/instr, ipc %.2f}", s.Instructions, s.MissPerInstr, s.IPC)
}

// Scale returns a copy with the instruction count multiplied by k (densities
// are unchanged).
func (s Segment) Scale(k float64) Segment {
	s.Instructions *= k
	return s
}

// Source supplies segments to simulated cores. The machine calls
// NextSegment whenever a core has exhausted its current segment; returning
// ok == false parks the core until the next quantum (it will poll again).
// Implementations are the parallel runtimes; they decide which core gets
// which work, including stealing.
//
// Complete is invoked by the machine the moment the segment previously
// handed to that core finishes executing; runtimes use it to release
// barriers (work-sharing) and to spawn child tasks (async–finish).
//
// Both methods receive the simulation time so runtimes can account for
// scheduling overheads or time-based phase changes. The machine never calls
// a source concurrently, so implementations need no locks, and within a
// quantum it steps cores in index order, so a schedule that depends on call
// order (a work-stealing runtime drawing victims from one RNG) is still a
// pure function of the seed.
type Source interface {
	NextSegment(core int, now float64) (Segment, bool)
	Complete(core int, now float64)
	// Done reports whether the program has no further work anywhere.
	Done() bool
}

// Phase pairs a segment template with a count, describing "n tasks that
// each look like seg".
type Phase struct {
	Seg   Segment
	Count int
}

// TotalInstructions sums the instruction budget of a phase list.
func TotalInstructions(phases []Phase) float64 {
	var sum float64
	for _, p := range phases {
		sum += p.Seg.Instructions * float64(p.Count)
	}
	return sum
}
