package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Task is one async task in the async–finish model, as a pointer-free
// handle: an index range that the task's finish scope (its round's Tree)
// interprets. The runtime never looks inside it, so a DAG builder may give
// Lo and Hi any meaning, and a tree whose tasks need no identity may leave
// them zero. Holding no pointer keeps a task at 16 bytes and makes the
// deques no-scan memory: the GC neither scans them nor guards their writes
// with barriers.
type Task struct {
	Lo, Hi int
}

// Tree interprets the tasks of one finish scope. Seg gives a task its work
// when a core dispatches it. Expand spawns the children of the task's body
// when it completes, which unfolds the same DAG as body-time spawning with
// slightly coarser interleaving: it appends t's children to kids and
// returns the extended slice, leaving kids' existing elements alone, and
// returns kids unchanged for a leaf. kids is the completing core's own
// deque, so the children land at its bottom in append order without a
// second copy. r is the runtime's RNG, shared with victim selection.
//
// The runtime calls Seg for every dispatched task and Expand for every
// completed one, in the order the machine steps them, so Expand may keep
// state across calls (UTS's shared node budget). Seg must depend only on
// the task and on what the tree fixed when its round started: a segment
// computed at dispatch is then the same floating-point operation on the
// same operands as one computed when the task was spawned.
type Tree interface {
	Seg(t Task) workload.Segment
	Expand(kids []Task, t Task, r *rand.Rand) []Task
}

// RoundGen supplies the root tasks of each finish scope ("round") and the
// Tree that interprets them, or ok == false when the program ends.
// Iterative benchmarks (Heat, SOR) have one round per outer iteration; UTS
// has a single round holding the tree roots. The runtime copies the roots
// into its deques and is done with the previous round's roots and tree
// when it asks for the next round, so a generator may reuse both.
type RoundGen func(round int) (roots []Task, tree Tree, ok bool)

// SingleRound wraps a fixed task set and its tree as a one-round program.
func SingleRound(roots []Task, tree Tree) RoundGen {
	return func(round int) ([]Task, Tree, bool) {
		if round > 0 {
			return nil, nil, false
		}
		return roots, tree, true
	}
}

// Per-model steal-path costs in instructions — the §5.2 calibration
// charged on every successful steal. They live here, next to the
// runtime that charges them, so the bench task builders and the
// scenario DSL's task-DAG decomposition share one source of truth:
// libomp's locked task queues vs HClib's lean work-first deques.
const (
	StealOverheadOpenMP = 700
	StealOverheadHClib  = 300
)

// WorkStealing is the HClib-style runtime: each worker owns a deque, pushes
// spawned children at the bottom, executes depth-first, and steals from the
// top of random victims when empty. A finish scope joins each round: the
// next round's roots are released only when every task of the current round
// has completed.
//
// The runtime holds no lock: the machine never calls a source concurrently.
type WorkStealing struct {
	cores   int
	gen     RoundGen
	tree    Tree // the current round's
	rng     *rand.Rand
	deques  []deque
	current []Task // task executing on each core
	running []bool
	queued  int // tasks sitting in deques (released, not yet picked up)
	pending int // tasks released but not completed in this round
	round   int
	done    bool

	// StealOverheadInstr is charged as extra instructions on every
	// successful steal, modelling deque CAS traffic and cache misses on the
	// migrated task's working set.
	StealOverheadInstr float64

	steals      int
	failedTries int
	tasksRun    int
}

// NewWorkStealing creates the runtime. The seed drives victim selection
// and any randomness in task expansion.
func NewWorkStealing(cores int, gen RoundGen, seed int64) *WorkStealing {
	if cores <= 0 {
		panic(fmt.Sprintf("sched: invalid core count %d", cores))
	}
	w := &WorkStealing{
		cores:              cores,
		gen:                gen,
		rng:                rand.New(rand.NewSource(seed)),
		deques:             make([]deque, cores),
		current:            make([]Task, cores),
		running:            make([]bool, cores),
		StealOverheadInstr: 400,
	}
	w.startRound()
	return w
}

// startRound releases the next round's roots, distributing them
// round-robin across the deques (HClib seeds the root at worker 0; we
// spread multi-root rounds to shorten ramp-up the way its loop-fork does).
func (w *WorkStealing) startRound() {
	roots, tree, ok := w.gen(w.round)
	w.round++
	if !ok {
		w.done = true
		return
	}
	if len(roots) == 0 {
		// An empty round completes immediately; recurse to the next.
		w.startRound()
		return
	}
	w.tree = tree
	for i, t := range roots {
		w.deques[i%w.cores].pushBottom(t)
	}
	w.queued += len(roots)
	w.pending = len(roots)
}

// NextSegment pops local work or steals. It returns ok == false when the
// worker found nothing this attempt (it will retry next quantum) or the
// round is draining toward its finish barrier.
func (w *WorkStealing) NextSegment(core int, now float64) (workload.Segment, bool) {
	if w.done || w.queued == 0 {
		// Nothing anywhere to pop or steal: fail fast without burning RNG
		// draws on victim selection. Idle cores poll every quantum, so this
		// path dominates ramp-up and finish-barrier drains.
		return workload.Segment{}, false
	}
	t, ok := w.deques[core].popBottom()
	stole := false
	if !ok {
		t, ok = w.steal(core)
		stole = ok
	}
	if !ok {
		return workload.Segment{}, false
	}
	w.queued--
	w.current[core] = t
	w.running[core] = true
	w.tasksRun++
	seg := w.tree.Seg(t)
	if stole {
		seg.Instructions += w.StealOverheadInstr
	}
	return seg, true
}

// steal tries up to cores-1 random victims.
func (w *WorkStealing) steal(thief int) (Task, bool) {
	if w.cores == 1 {
		return Task{}, false
	}
	for tries := 0; tries < w.cores-1; tries++ {
		victim := w.rng.Intn(w.cores)
		if victim == thief {
			continue
		}
		if t, ok := w.deques[victim].stealTop(); ok {
			w.steals++
			return t, true
		}
		w.failedTries++
	}
	return Task{}, false
}

// Complete finishes the task on core: its children are spawned onto the
// core's own deque, and the finish barrier releases the next round when the
// last task of this round retires.
func (w *WorkStealing) Complete(core int, now float64) {
	if !w.running[core] {
		return
	}
	w.running[core] = false
	n := w.deques[core].expand(w.current[core], w.tree, w.rng)
	w.queued += n
	w.pending += n
	w.pending--
	if w.pending == 0 {
		w.startRound()
	}
}

// Done reports whether every round has completed.
func (w *WorkStealing) Done() bool { return w.done }

// Stats returns scheduler counters: tasks executed, successful steals and
// failed steal attempts.
func (w *WorkStealing) Stats() (tasks, steals, failed int) {
	return w.tasksRun, w.steals, w.failedTries
}
