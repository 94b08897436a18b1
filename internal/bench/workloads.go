package bench

import (
	"math/rand"

	"repro/internal/sched"
	"repro/internal/workload"
)

// remoteFrac is the MISS_REMOTE share under numactl --interleave on the
// paper's two-socket machine: roughly the remote socket's share of pages.
const remoteFrac = 0.35

// Nominal instruction budgets at Scale == 1, sized so Default executions
// take approximately Table 1's wall times on the simulated machine (the
// per-benchmark IPS estimates come from the memory-model equilibrium).
const (
	utsTotalInstr    = 5.1e12  // 69.9 s at ≈73 Ginstr/s
	sorTotalInstr    = 1.37e12 // 69 s at ≈20 Ginstr/s
	heatTotalInstr   = 1.26e12 // 76.6 s at ≈16.4 Ginstr/s
	miniFETotalInstr = 7.6e11  // 78.5 s at ≈9.7 Ginstr/s
	hpccgTotalInstr  = 5.4e11  // 60 s at ≈9 Ginstr/s
	amgTotalInstr    = 4.8e11  // 63.7 s at ≈7.6 Ginstr/s
)

// scaledIters shrinks an iteration count by the scale factor, keeping at
// least two iterations so phase structure survives.
func scaledIters(iters int, scale float64) int {
	n := int(float64(iters)*scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// ---------------------------------------------------------------- UTS ----

// utsSpec is Unbalanced Tree Search: a single finish scope whose tasks
// expand into random numbers of children until a node budget is exhausted,
// giving the extreme load imbalance the benchmark exists to create. Node
// evaluation is a SHA-1-style hash — pure compute, nearly no LLC traffic
// (TIPI 0.000–0.004).
func utsSpec() Spec {
	return Spec{
		Name:         "UTS",
		Style:        IrregularTasks,
		TIPILow:      0.000,
		TIPIHigh:     0.004,
		PaperSeconds: 69.9,
		// §5.2 discards UTS for HClib: it carries its own work stealing.
		HClibPort: false,
		build: func(p Params) workload.Source {
			const nodeInstr = 1e6
			tree := &utsTree{
				node: workload.Segment{
					Instructions: nodeInstr,
					MissPerInstr: 0.0015,
					IPC:          1.6,
					RemoteFrac:   remoteFrac,
					Exposure:     1.0,
				},
				budget: int(utsTotalInstr * p.Scale / nodeInstr),
			}
			// UTS trees hang off a root with a large fixed branching factor
			// (b0); the interior branching process alone is near-critical
			// and would go extinct under unlucky seeds. 200 root subtrees
			// make whole-tree extinction vanishingly unlikely while
			// preserving the subtree-size imbalance.
			roots := make([]sched.Task, 10*p.Cores)
			tree.budget -= len(roots)
			return newTaskRuntime(p, sched.SingleRound(roots, tree))
		},
	}
}

// utsTree unfolds a UTS tree. Every node does the same work, so its tasks
// are zero handles; what differs between runs is how many children each
// node draws before the shared node budget runs out.
type utsTree struct {
	node   workload.Segment
	budget int // nodes left to spawn
}

func (u *utsTree) Seg(sched.Task) workload.Segment { return u.node }

func (u *utsTree) Expand(kids []sched.Task, _ sched.Task, r *rand.Rand) []sched.Task {
	if u.budget <= 0 {
		return kids
	}
	// Geometric-flavoured branching: 0–7 children with a long tail of
	// leaves, the UTS imbalance source.
	n := 0
	if r.Float64() < 0.30 {
		n = 1 + r.Intn(7)
	}
	if n > u.budget {
		n = u.budget
	}
	u.budget -= n
	for range n {
		kids = append(kids, sched.Task{})
	}
	return kids
}

// ------------------------------------------------------------ SOR/Heat ----

// stencilParams captures what distinguishes the two stencil benchmarks.
type stencilParams struct {
	name         string
	totalInstr   float64
	iters        int
	paperSeconds float64
	tipiLow      float64
	tipiHigh     float64
	seg          workload.Segment // per-tile densities
	mJitter      float64          // per-iteration TIPI wobble
}

func sorParams() stencilParams {
	return stencilParams{
		name:         "SOR",
		totalInstr:   sorTotalInstr,
		iters:        200,
		paperSeconds: 69.0,
		tipiLow:      0.024,
		tipiHigh:     0.028,
		seg: workload.Segment{
			MissPerInstr: 0.026,
			IPC:          0.45, // dependent FP updates with the ω relaxation
			RemoteFrac:   remoteFrac,
			Exposure:     0.15, // red-black sweeps prefetch almost perfectly
		},
		mJitter: 0.001,
	}
}

func heatParams() stencilParams {
	return stencilParams{
		name:         "Heat",
		totalInstr:   heatTotalInstr,
		iters:        200,
		paperSeconds: 76.6,
		tipiLow:      0.056,
		tipiHigh:     0.076,
		seg: workload.Segment{
			MissPerInstr: 0.066,
			IPC:          2.0, // independent Jacobi updates superscalar well
			RemoteFrac:   remoteFrac,
			Exposure:     0.6, // three streams defeat part of the prefetch
		},
		mJitter: 0.004,
	}
}

// stencilTiles is the per-iteration decomposition granularity. It is fine
// enough (≈2000 leaf tasks per finish scope for 20 cores) that the
// end-of-round straggler tail is a negligible slice of each Tinv sample;
// coarse leaves would inject idle-time spikes into the daemon's JPI
// averages that swamp the few-percent deltas exploration compares.
const stencilTiles = 4096

// stencilTree is one iteration's task tree over the tile range, in the
// Chen et al. construction of Fig. 1: regular variants split the range
// evenly (binary, degree-3 interior counting the parent edge), irregular
// variants split it unevenly into three parts so subtree sizes — and hence
// steal targets — vary wildly. A task is its own [Lo, Hi) tile range: a
// range of at most leafTiles tiles is a leaf doing that many tiles' work,
// and a wider one is an interior node that only spawns.
type stencilTree struct {
	style       Style
	leaf, spawn workload.Segment // leaf is one tile's work
}

const leafTiles = 2

func (s *stencilTree) Seg(t sched.Task) workload.Segment {
	if n := t.Hi - t.Lo; n <= leafTiles {
		seg := s.leaf
		seg.Instructions *= float64(n)
		return seg
	}
	return s.spawn
}

func (s *stencilTree) Expand(kids []sched.Task, t sched.Task, _ *rand.Rand) []sched.Task {
	lo, hi := t.Lo, t.Hi
	n := hi - lo
	if n <= leafTiles {
		return kids
	}
	if s.style == RegularTasks {
		mid := lo + n/2
		return append(kids, sched.Task{Lo: lo, Hi: mid}, sched.Task{Lo: mid, Hi: hi})
	}
	// Irregular: 1/6, 1/3, remainder — skewed ternary.
	a := lo + max(1, n/6)
	b := a + max(1, n/3)
	if b >= hi {
		b = hi - 1
	}
	return append(kids, sched.Task{Lo: lo, Hi: a}, sched.Task{Lo: a, Hi: b}, sched.Task{Lo: b, Hi: hi})
}

// stencilTaskSpec builds the irt/rt variants of a stencil benchmark.
func stencilTaskSpec(sp stencilParams, style Style) Spec {
	suffix := "-irt"
	if style == RegularTasks {
		suffix = "-rt"
	}
	return Spec{
		Name:         sp.name + suffix,
		Style:        style,
		TIPILow:      sp.tipiLow,
		TIPIHigh:     sp.tipiHigh,
		PaperSeconds: sp.paperSeconds,
		HClibPort:    true,
		build: func(p Params) workload.Source {
			iters := scaledIters(sp.iters, p.Scale)
			perIter := sp.totalInstr * p.Scale / float64(iters)
			leaf := sp.seg
			leaf.Instructions = perIter / stencilTiles
			spawn := workload.Segment{
				Instructions: 2000,
				MissPerInstr: 0.002,
				IPC:          1.5,
				RemoteFrac:   remoteFrac,
			}
			jitterRng := rand.New(rand.NewSource(p.Seed ^ 0x5717))
			roots := []sched.Task{{Lo: 0, Hi: stencilTiles}}
			tree := &stencilTree{style: style, spawn: spawn}
			gen := func(round int) ([]sched.Task, sched.Tree, bool) {
				if round >= iters {
					return nil, nil, false
				}
				tree.leaf = leaf
				tree.leaf.MissPerInstr += (jitterRng.Float64()*2 - 1) * sp.mJitter
				return roots, tree, true
			}
			return newTaskRuntime(p, gen)
		},
	}
}

func sorSpec(style Style) Spec  { return stencilTaskSpec(sorParams(), style) }
func heatSpec(style Style) Spec { return stencilTaskSpec(heatParams(), style) }

// stencilWSSpec builds the work-sharing variant: each iteration is a main
// sweep region plus a small residual-reduction region with a much lower
// TIPI, which is where the ws variants' extra slabs come from (Table 1:
// SOR-ws 3 slabs, Heat-ws 11).
func stencilWSSpec(sp stencilParams, tipiLow float64, redJitter float64) Spec {
	return Spec{
		Name:         sp.name + "-ws",
		Style:        WorkSharing,
		TIPILow:      tipiLow,
		TIPIHigh:     sp.tipiHigh,
		PaperSeconds: sp.paperSeconds,
		HClibPort:    true,
		build: func(p Params) workload.Source {
			iters := scaledIters(sp.iters, p.Scale)
			perIter := sp.totalInstr * p.Scale / float64(iters)
			const sweepFrac = 0.95
			chunks := 16 * p.Cores
			sweep := sp.seg
			sweep.Instructions = perIter * sweepFrac / float64(chunks)
			reduce := workload.Segment{
				Instructions: perIter * (1 - sweepFrac) / float64(p.Cores),
				MissPerInstr: 0.014,
				IPC:          1.2,
				RemoteFrac:   remoteFrac,
				Exposure:     0.4,
			}
			jitterRng := rand.New(rand.NewSource(p.Seed ^ 0x30f1))
			// The residual reduction runs every fourth iteration (a
			// convergence check), so the sweep slab dominates long
			// uninterrupted stretches the way the paper's ws variants do
			// (one frequent slab despite many distinct ones).
			const reduceEvery = 4
			gen := func(step int) (sched.Region, bool) {
				iter, phase := step/2, step%2
				if iter >= iters {
					return sched.Region{}, false
				}
				if phase == 0 {
					s := sweep
					s.MissPerInstr += (jitterRng.Float64()*2 - 1) * sp.mJitter
					return sched.Region{Seg: s, Chunks: chunks, JitterFrac: 0.05}, true
				}
				if iter%reduceEvery != 0 {
					// Skip the reduction this iteration: an empty barrier
					// region is not expressible, so emit a vanishing chunk.
					return sched.Region{Seg: workload.Segment{Instructions: 1, IPC: 2}, Chunks: 1}, true
				}
				r := reduce
				r.Instructions *= reduceEvery // same total reduction work
				r.MissPerInstr += (jitterRng.Float64()*2 - 1) * redJitter
				return sched.Region{Seg: r, Chunks: p.Cores, JitterFrac: 0.05}, true
			}
			return sched.NewWorkSharing(p.Cores, gen, p.Seed)
		},
	}
}

func sorWSSpec() Spec {
	sp := sorParams()
	sp.tipiLow = 0.012
	return stencilWSSpec(sp, 0.012, 0.002)
}

func heatWSSpec() Spec {
	sp := heatParams()
	sp.mJitter = 0.006 // Table 1: Heat-ws shows 11 distinct slabs
	return stencilWSSpec(sp, 0.012, 0.006)
}
