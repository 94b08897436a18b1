package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/workload"
)

// drive simulates the machine's calling convention without the timing
// model: every core repeatedly asks for a segment and completes it
// immediately. It returns the number of segments executed per core.
func drive(t *testing.T, src workload.Source, cores, maxSteps int) []int {
	t.Helper()
	perCore := make([]int, cores)
	for step := 0; step < maxSteps; step++ {
		if src.Done() {
			return perCore
		}
		progress := false
		for c := 0; c < cores; c++ {
			if seg, ok := src.NextSegment(c, float64(step)); ok {
				if !seg.Valid() {
					t.Fatalf("invalid segment %v", seg)
				}
				src.Complete(c, float64(step))
				perCore[c]++
				progress = true
			}
		}
		if !progress && !src.Done() {
			t.Fatal("runtime wedged: no progress and not done")
		}
	}
	t.Fatal("runtime did not finish in step budget")
	return nil
}

func seg(n float64) workload.Segment {
	return workload.Segment{Instructions: n, IPC: 2}
}

func TestWorkSharingRunsAllChunks(t *testing.T) {
	const cores, chunks, iters = 4, 10, 3
	ws := NewWorkSharing(cores, StaticProgram([]Region{{Seg: seg(100), Chunks: chunks}}, iters), 1)
	perCore := drive(t, ws, cores, 1000)
	total := 0
	for _, n := range perCore {
		total += n
	}
	if total != chunks*iters {
		t.Errorf("executed %d chunks, want %d", total, chunks*iters)
	}
	regions, chunksRun := ws.Stats()
	if regions != iters || chunksRun != chunks*iters {
		t.Errorf("stats = %d regions %d chunks, want %d/%d", regions, chunksRun, iters, chunks*iters)
	}
}

func TestWorkSharingStaticAssignment(t *testing.T) {
	// With chunks == cores each core runs exactly one chunk per region.
	const cores = 5
	ws := NewWorkSharing(cores, StaticProgram([]Region{{Seg: seg(10), Chunks: cores}}, 4), 1)
	perCore := drive(t, ws, cores, 100)
	for c, n := range perCore {
		if n != 4 {
			t.Errorf("core %d ran %d chunks, want 4", c, n)
		}
	}
}

func TestWorkSharingBarrier(t *testing.T) {
	// A core that finished its share must get nothing until the region
	// completes: with 2 cores and 3 chunks, core 1 has one chunk, core 0
	// has two; after core 1's chunk completes it must wait.
	ws := NewWorkSharing(2, StaticProgram([]Region{{Seg: seg(10), Chunks: 3}}, 2), 1)
	if _, ok := ws.NextSegment(1, 0); !ok {
		t.Fatal("core 1 should get chunk 1")
	}
	ws.Complete(1, 0)
	if _, ok := ws.NextSegment(1, 0); ok {
		t.Fatal("core 1 must wait at the barrier, region not complete")
	}
	// Core 0 drains its two chunks; barrier opens a new region.
	for i := 0; i < 2; i++ {
		if _, ok := ws.NextSegment(0, 0); !ok {
			t.Fatalf("core 0 denied chunk %d", i)
		}
		ws.Complete(0, 0)
	}
	// The release takes effect at the next timestamp (the one-quantum
	// barrier wake-up latency that keeps results independent of the order
	// cores step in): same-time claims are refused, later ones succeed.
	if _, ok := ws.NextSegment(1, 0); ok {
		t.Fatal("claim at the release timestamp must wait out the barrier latency")
	}
	if _, ok := ws.NextSegment(1, 0.0005); !ok {
		t.Fatal("barrier should have opened the second region for core 1")
	}
}

func TestWorkSharingJitterPerturbsWithinBounds(t *testing.T) {
	ws := NewWorkSharing(1, StaticProgram([]Region{{Seg: seg(1000), Chunks: 50, JitterFrac: 0.2}}, 1), 7)
	sawDifferent := false
	for i := 0; i < 50; i++ {
		s, ok := ws.NextSegment(0, 0)
		if !ok {
			t.Fatal("ran out of chunks")
		}
		if s.Instructions < 800-1e-9 || s.Instructions > 1200+1e-9 {
			t.Errorf("jittered instructions %.1f outside ±20%%", s.Instructions)
		}
		if s.Instructions != 1000 {
			sawDifferent = true
		}
		ws.Complete(0, 0)
	}
	if !sawDifferent {
		t.Error("jitter produced no variation")
	}
}

// TestWorkSharingAdvanceAllocatesNothing: crossing a region barrier reuses
// the per-core claim counters instead of allocating new ones.
func TestWorkSharingAdvanceAllocatesNothing(t *testing.T) {
	const cores = 4
	regions := []Region{{Seg: seg(10), Chunks: cores}, {Seg: seg(20), Chunks: 3 * cores, JitterFrac: 0.1}}
	ws := NewWorkSharing(cores, StaticProgram(regions, 1000), 1)
	now := 0.0
	region := func() {
		now++ // past the barrier's release latency
		for c := 0; c < cores; c++ {
			for {
				if _, ok := ws.NextSegment(c, now); !ok {
					break
				}
				ws.Complete(c, now)
			}
		}
	}
	if n := testing.AllocsPerRun(100, region); n != 0 {
		t.Errorf("a region advance allocated %v times, want 0", n)
	}
	if r, _ := ws.Stats(); r != 102 {
		t.Fatalf("ran %d regions, want one per call (102)", r)
	}
}

func TestWorkSharingEmptyProgram(t *testing.T) {
	ws := NewWorkSharing(2, StaticProgram(nil, 5), 1)
	if !ws.Done() {
		t.Error("empty program must be done immediately")
	}
	if _, ok := ws.NextSegment(0, 0); ok {
		t.Error("empty program handed out work")
	}
}

// spawnTree is a test Tree that identifies each task by Lo: task t's work
// is t.Lo instructions, and spawn, when set, appends t's children.
type spawnTree func(kids []Task, t Task) []Task

func (f spawnTree) Seg(t Task) workload.Segment { return seg(float64(t.Lo)) }

func (f spawnTree) Expand(kids []Task, t Task, _ *rand.Rand) []Task {
	if f == nil {
		return kids
	}
	return f(kids, t)
}

// binaryTree returns a tree over the complete binary tree of the given
// depth, its root, and its node count. Nodes are numbered in heap order
// from 1 (node i spawns 2i and 2i+1), so every node is distinct.
func binaryTree(depth int) (Tree, Task, int) {
	nodes := 1<<(depth+1) - 1
	tree := spawnTree(func(kids []Task, t Task) []Task {
		if 2*t.Lo < nodes {
			kids = append(kids, Task{Lo: 2 * t.Lo}, Task{Lo: 2*t.Lo + 1})
		}
		return kids
	})
	return tree, Task{Lo: 1}, nodes
}

// TestTaskIsPointerFree: the deques are no-scan memory, which the GC
// neither scans nor guards with write barriers, only while a Task holds no
// pointer, and each task is copied several times between spawn and
// completion.
func TestTaskIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Task{})
	for i := range typ.NumField() {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("Task.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(Task{}); n > 16 {
		t.Errorf("Task is %d bytes, want at most 16", n)
	}
}

// pointerFree reports whether a value of type typ holds no pointer.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Func, reflect.Chan, reflect.Interface:
		return false
	}
	return true
}

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	var d deque
	for i := 0; i < 5; i++ {
		d.pushBottom(Task{Lo: i})
	}
	if top, _ := d.stealTop(); top.Lo != 0 {
		t.Errorf("thief got %d, want oldest (0)", top.Lo)
	}
	if bot, _ := d.popBottom(); bot.Lo != 4 {
		t.Errorf("owner got %d, want newest (4)", bot.Lo)
	}
	if d.size() != 3 {
		t.Errorf("size = %d, want 3", d.size())
	}
}

func TestDequeGrowthPreservesOrder(t *testing.T) {
	var d deque
	const n = 1000
	for i := 0; i < n; i++ {
		d.pushBottom(Task{Lo: i})
		if i%3 == 0 {
			d.stealTop() // interleave steals to exercise compaction
		}
	}
	prev := -1
	for {
		task, ok := d.stealTop()
		if !ok {
			break
		}
		if task.Lo <= prev {
			t.Fatalf("steal order broken: %d after %d", task.Lo, prev)
		}
		prev = task.Lo
	}

	// Thieves take more than half of a deque, then its owner expands a
	// task: the children follow the remaining tasks in push order, the
	// owner pops LIFO and thieves steal FIFO.
	var e deque
	for i := 0; i < 10; i++ {
		e.pushBottom(Task{Lo: i})
	}
	for i := 0; i < 6; i++ {
		e.stealTop()
	}
	three := spawnTree(func(kids []Task, t Task) []Task {
		for i := 0; i < 3; i++ {
			kids = append(kids, Task{Lo: t.Lo + i})
		}
		return kids
	})
	if n := e.expand(Task{Lo: 100}, three, nil); n != 3 {
		t.Fatalf("expand spawned %d children, want 3", n)
	}
	var order []int
	for _, task := range e.buf[e.top:e.bottom] {
		order = append(order, task.Lo)
	}
	if want := []int{6, 7, 8, 9, 100, 101, 102}; !slices.Equal(order, want) {
		t.Fatalf("deque after expand = %v, want %v", order, want)
	}
	if bot, _ := e.popBottom(); bot.Lo != 102 {
		t.Errorf("owner got %d, want the last child (102)", bot.Lo)
	}
	if top, _ := e.stealTop(); top.Lo != 6 {
		t.Errorf("thief got %d, want the oldest task (6)", top.Lo)
	}

	// Steady state: each cycle the owner pops one task and expands it into
	// three, and thieves take two. The live size stays put, so once warm
	// the buffer must stop growing.
	var capAfterWarmup int
	for cycle := 0; cycle < 1000; cycle++ {
		task, ok := e.popBottom()
		if !ok {
			t.Fatalf("cycle %d: deque ran dry", cycle)
		}
		e.expand(task, three, nil)
		e.stealTop()
		e.stealTop()
		if cycle == 10 {
			capAfterWarmup = cap(e.buf)
		}
	}
	if e.size() != 5 {
		t.Errorf("size after the cycles = %d, want 5", e.size())
	}
	if cap(e.buf) != capAfterWarmup {
		t.Errorf("capacity grew from %d to %d over steady expand/pop cycles", capAfterWarmup, cap(e.buf))
	}
}

func TestDequeEmpty(t *testing.T) {
	var d deque
	if _, ok := d.popBottom(); ok {
		t.Error("popBottom on empty deque returned a task")
	}
	if _, ok := d.stealTop(); ok {
		t.Error("stealTop on empty deque returned a task")
	}
}

func TestWorkStealingExecutesWholeTree(t *testing.T) {
	tree, root, want := binaryTree(8)
	ws := NewWorkStealing(4, SingleRound([]Task{root}, tree), 42)
	drive(t, ws, 4, 100000)
	tasks, steals, _ := ws.Stats()
	if tasks != want {
		t.Errorf("executed %d tasks, want %d", tasks, want)
	}
	if steals == 0 {
		t.Error("a 4-worker tree execution should steal at least once")
	}
}

func TestWorkStealingDistributesLoad(t *testing.T) {
	tree, root, want := binaryTree(10)
	const cores = 4
	ws := NewWorkStealing(cores, SingleRound([]Task{root}, tree), 7)
	perCore := drive(t, ws, cores, 1000000)
	for c, n := range perCore {
		if n < want/cores/4 {
			t.Errorf("core %d ran only %d of %d tasks; stealing failed to balance", c, n, want)
		}
	}
}

func TestWorkStealingRounds(t *testing.T) {
	// Three rounds of 8 leaf tasks: round r+1 must not start before round r
	// drains (finish semantics). We detect ordering via the generator call
	// sequence.
	var started []int
	gen := func(round int) ([]Task, Tree, bool) {
		if round >= 3 {
			return nil, nil, false
		}
		started = append(started, round)
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Lo: 10}
		}
		return tasks, spawnTree(nil), true
	}
	ws := NewWorkStealing(2, gen, 1)
	drive(t, ws, 2, 10000)
	if len(started) != 3 {
		t.Errorf("rounds started = %v, want [0 1 2]", started)
	}
	tasks, _, _ := ws.Stats()
	if tasks != 24 {
		t.Errorf("tasks = %d, want 24", tasks)
	}
}

func TestWorkStealingStealOverheadCharged(t *testing.T) {
	// Worker 1 must steal its first task from worker 0's deque; the segment
	// it receives carries the steal overhead. Both children land on deque 0
	// because one root (1 instruction) spawns them (2 and 3 instructions).
	tree, root, _ := binaryTree(1)
	ws := NewWorkStealing(2, SingleRound([]Task{root}, tree), 3)
	s0, ok := ws.NextSegment(0, 0)
	if !ok || s0.Instructions != 1 {
		t.Fatalf("root segment = %v %v", s0, ok)
	}
	ws.Complete(0, 0) // children pushed to deque 0
	s1, ok := ws.NextSegment(1, 0)
	if !ok {
		t.Fatal("worker 1 failed to steal")
	}
	if s1.Instructions != 2+ws.StealOverheadInstr {
		t.Errorf("stolen segment = %g instr, want the oldest child (2) plus %g", s1.Instructions, ws.StealOverheadInstr)
	}
	s0b, ok := ws.NextSegment(0, 0)
	if !ok {
		t.Fatal("worker 0 denied local task")
	}
	if s0b.Instructions != 3 {
		t.Errorf("local segment = %g instr, want the newest child (3) with no overhead", s0b.Instructions)
	}
}

func TestWorkStealingEmptyProgram(t *testing.T) {
	ws := NewWorkStealing(2, func(int) ([]Task, Tree, bool) { return nil, nil, false }, 1)
	if !ws.Done() {
		t.Error("empty program must be done")
	}
}

func TestWorkStealingSkipsEmptyRounds(t *testing.T) {
	gen := func(round int) ([]Task, Tree, bool) {
		switch round {
		case 0:
			return []Task{}, spawnTree(nil), true // empty round: skip
		case 1:
			return []Task{{Lo: 5}}, spawnTree(nil), true
		default:
			return nil, nil, false
		}
	}
	ws := NewWorkStealing(1, gen, 1)
	drive(t, ws, 1, 100)
	tasks, _, _ := ws.Stats()
	if tasks != 1 {
		t.Errorf("tasks = %d, want 1", tasks)
	}
}

// Property: for random small trees, work stealing with any worker count
// executes exactly the tree's node count.
func TestWorkStealingConservationQuick(t *testing.T) {
	prop := func(depthRaw, coresRaw uint8) bool {
		depth := int(depthRaw % 6)
		cores := 1 + int(coresRaw%8)
		tree, root, want := binaryTree(depth)
		ws := NewWorkStealing(cores, SingleRound([]Task{root}, tree), int64(depthRaw)*31+int64(coresRaw))
		for steps := 0; !ws.Done(); steps++ {
			if steps > 100000 {
				return false
			}
			for c := 0; c < cores; c++ {
				if _, ok := ws.NextSegment(c, 0); ok {
					ws.Complete(c, 0)
				}
			}
		}
		tasks, _, _ := ws.Stats()
		return tasks == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
