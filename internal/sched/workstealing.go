package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Task is one async task in the async–finish model: a segment of work plus
// an optional Expand hook that spawns the children of the task's body.
// Expansion happens when the task completes, which unfolds the same DAG as
// body-time spawning with slightly coarser interleaving.
//
// Expand receives the task itself and must append its children to kids
// and return the extended slice, leaving kids' existing elements alone:
// kids is the completing core's own deque, so the children land at its
// bottom in append order without a second copy. Lo and Hi belong to the
// DAG builder: a node that carries its own index range lets one Expand
// function unfold a whole tree, so spawning allocates nothing per task.
type Task struct {
	Seg    workload.Segment
	Lo, Hi int
	Expand func(kids []Task, t Task, r *rand.Rand) []Task
}

// RoundGen supplies the root task set of each finish scope ("round"), or
// ok == false when the program ends. Iterative benchmarks (Heat, SOR) have
// one round per outer iteration; UTS has a single round holding the tree
// root.
type RoundGen func(round int) ([]Task, bool)

// SingleRound wraps a fixed task set as a one-round program.
func SingleRound(tasks []Task) RoundGen {
	return func(round int) ([]Task, bool) {
		if round > 0 {
			return nil, false
		}
		return tasks, true
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
	roots, ok := w.gen(w.round)
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
	seg := t.Seg
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
	t := &w.current[core]
	w.running[core] = false
	if t.Expand != nil {
		n := w.deques[core].expand(*t, w.rng)
		w.queued += n
		w.pending += n
	}
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
