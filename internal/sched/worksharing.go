// Package sched implements the two parallel runtimes the paper evaluates
// Cuttlefish under: an OpenMP-style work-sharing runtime (static loop
// partitioning with barriers between parallel regions) and an HClib-style
// async–finish work-stealing runtime (per-worker deques, random victim
// selection, rounds joined by finish scopes).
//
// Cuttlefish itself never sees either runtime — that is the paper's central
// claim of programming-model obliviousness — but the runtimes shape when
// and where the machine retires instructions and generates TOR traffic,
// which is everything the daemon observes.
package sched

import (
	"fmt"

	"repro/internal/workload"
)

// Region is one work-sharing parallel region: Chunks independent pieces of
// work, each described by Seg, separated from the next region by an implied
// barrier. JitterFrac, if nonzero, perturbs each chunk's instruction count
// by a uniform ±JitterFrac factor to model load imbalance.
type Region struct {
	Seg        workload.Segment
	Chunks     int
	JitterFrac float64
}

// RegionGen produces the region for a given step, or ok == false when the
// program is over. Iterative benchmarks return their per-iteration regions
// in sequence.
type RegionGen func(step int) (Region, bool)

// StaticProgram builds a RegionGen that cycles the given regions for the
// given number of iterations.
func StaticProgram(regions []Region, iterations int) RegionGen {
	n := len(regions)
	return func(step int) (Region, bool) {
		if n == 0 || step >= n*iterations {
			return Region{}, false
		}
		return regions[step%n], true
	}
}

// WorkSharing executes a sequence of parallel regions with static chunk
// assignment: chunk c of a region belongs to core c mod P, exactly like
// OpenMP schedule(static) with chunk granularity. A region's barrier
// releases only when every chunk has completed, and the release takes
// effect at the next simulation timestamp: cores asking at the same `now`
// the barrier opened are refused. That one-quantum release latency (a real
// barrier's wake-up cost) makes the runtime independent of the order cores
// step in within a quantum: a core stepped after the one that completed
// the region sees the same closed barrier as a core stepped before it.
//
// The runtime holds no lock: the machine never calls a source concurrently.
type WorkSharing struct {
	cores     int
	gen       RegionGen
	seed      int64
	step      int
	cur       Region
	curOK     bool
	claimed   []int // per-core chunks taken in the current region, reused across regions
	completed int
	inFlight  int
	done      bool

	// openAt is the simulation time the current region became claimable;
	// claims at the same timestamp wait out the barrier release latency.
	openAt float64

	// regionsDone counts fully completed regions — the runtime's barrier
	// boundary counter, which the engine polls to stop batches exactly at
	// region boundaries (see machine.BoundarySource).
	regionsDone int

	// stats
	regionsRun int
	chunksRun  int
}

// NewWorkSharing creates the runtime for the given core count. The seed
// drives jitter only; a jitter-free program is fully deterministic, and a
// jittered one is too — each chunk's jitter is a pure function of
// (seed, region, chunk), never a sequential draw, so results are
// independent of the order cores claim chunks in.
func NewWorkSharing(cores int, gen RegionGen, seed int64) *WorkSharing {
	if cores <= 0 {
		panic(fmt.Sprintf("sched: invalid core count %d", cores))
	}
	ws := &WorkSharing{cores: cores, gen: gen, seed: seed, openAt: -1, claimed: make([]int, cores)}
	ws.advance()
	return ws
}

// IndexJitter returns a uniform value in [0, 1) derived from a seed and
// two indices — splitmix64 over the triple. Being a pure function (never
// a sequential draw), every perturbation is stable no matter which core
// asks first; the work-sharing runtime uses it for
// chunk jitter and the scenario DSL for its (domain-separated) phase
// jitter, so there is exactly one implementation to keep deterministic.
func IndexJitter(seed int64, a, b int) float64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= uint64(a)*0xbf58476d1ce4e5b9 + uint64(b)*0x94d049bb133111eb
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// chunkJitter derives chunk jitter from the runtime seed, the region's
// program step and the chunk index.
func chunkJitter(seed int64, step, chunk int) float64 {
	return IndexJitter(seed, step, chunk)
}

// advance loads the next region or marks the program done.
func (w *WorkSharing) advance() {
	w.cur, w.curOK = w.gen(w.step)
	w.step++
	w.completed = 0
	clear(w.claimed)
	if !w.curOK {
		w.done = true
		return
	}
	if w.cur.Chunks <= 0 {
		panic(fmt.Sprintf("sched: region %d has %d chunks", w.step-1, w.cur.Chunks))
	}
	w.regionsRun++
}

// NextSegment hands core its next statically assigned chunk (chunks core,
// core+P, core+2P, ... of the region, in order). Cores whose share of the
// region is exhausted wait at the barrier (ok == false) until every chunk
// has completed.
func (w *WorkSharing) NextSegment(core int, now float64) (workload.Segment, bool) {
	if w.done {
		return workload.Segment{}, false
	}
	if now <= w.openAt {
		return workload.Segment{}, false // barrier release latency
	}
	idx := core + w.claimed[core]*w.cores
	if idx >= w.cur.Chunks {
		return workload.Segment{}, false // barrier wait
	}
	w.claimed[core]++
	seg := w.cur.Seg
	if j := w.cur.JitterFrac; j > 0 {
		seg.Instructions *= 1 + (chunkJitter(w.seed, w.step, idx)*2-1)*j
	}
	w.inFlight++
	w.chunksRun++
	return seg, true
}

// Complete retires one chunk; the last chunk of a region opens the barrier.
func (w *WorkSharing) Complete(core int, now float64) {
	if w.done {
		return
	}
	w.inFlight--
	w.completed++
	if w.completed == w.cur.Chunks {
		w.regionsDone++
		w.openAt = now
		w.advance()
	}
}

// BoundaryCount returns the number of fully completed regions. It
// implements machine.BoundarySource: the engine compares it across quanta
// to end batches exactly at barrier boundaries, which is what makes
// region-boundary machine snapshots land on identical floating-point
// state whether or not a run was resumed.
func (w *WorkSharing) BoundaryCount() int { return w.regionsDone }

// WSCheckpoint is the runtime's complete mutable state at a region
// boundary: how many regions have completed, the barrier-release
// timestamp, and the chunk counter. Together with the (pure) RegionGen,
// seed and core count it reconstructs the runtime exactly — the claimed
// and completion maps are empty at a boundary by construction.
type WSCheckpoint struct {
	RegionsDone int
	OpenAt      float64
	Chunks      int
}

// Checkpoint captures the runtime state at a region boundary. ok is false
// when the runtime is mid-region (chunks claimed or in flight), where the
// state is not reconstructible from a checkpoint.
func (w *WorkSharing) Checkpoint() (WSCheckpoint, bool) {
	if w.inFlight != 0 || w.completed != 0 {
		return WSCheckpoint{}, false
	}
	return WSCheckpoint{RegionsDone: w.regionsDone, OpenAt: w.openAt, Chunks: w.chunksRun}, true
}

// NewWorkSharingAt reconstructs a runtime at a region boundary previously
// captured by Checkpoint. The gen, seed and core count must be the ones
// the original runtime was built with; chunk jitter is a pure function of
// (seed, step, chunk), so the resumed runtime hands out bit-identical
// segments.
func NewWorkSharingAt(cores int, gen RegionGen, seed int64, cp WSCheckpoint) *WorkSharing {
	if cores <= 0 {
		panic(fmt.Sprintf("sched: invalid core count %d", cores))
	}
	ws := &WorkSharing{cores: cores, gen: gen, seed: seed, step: cp.RegionsDone, openAt: cp.OpenAt, claimed: make([]int, cores)}
	ws.advance()
	ws.regionsDone = cp.RegionsDone
	ws.regionsRun = cp.RegionsDone
	if ws.curOK {
		ws.regionsRun++
	}
	ws.chunksRun = cp.Chunks
	return ws
}

// Done reports whether every region has run to completion.
func (w *WorkSharing) Done() bool { return w.done }

// Stats returns regions and chunks executed so far.
func (w *WorkSharing) Stats() (regions, chunks int) { return w.regionsRun, w.chunksRun }
