package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
)

// deque is a grow-able double-ended work queue in the Chase–Lev layout:
// the owning worker pushes and pops at the bottom (LIFO, cache-friendly
// depth-first execution), thieves steal from the top (FIFO, stealing the
// oldest and typically largest subtree). The machine never calls a runtime
// concurrently, so the structure carries the semantics rather than the
// lock-freedom of the original.
//
// Vacated slots are not cleared: a Task holds no pointer, so a stale
// slot keeps nothing alive.
type deque struct {
	buf    []Task
	top    int // next steal position
	bottom int // next push position
}

// size returns the number of queued tasks.
func (d *deque) size() int { return d.bottom - d.top }

// pushBottom adds a task at the owner's end.
func (d *deque) pushBottom(t Task) {
	if d.bottom == len(d.buf) {
		d.grow()
	}
	d.buf[d.bottom] = t
	d.bottom++
}

// expand spawns t's children at the owner's end and returns how many it
// spawned. tree.Expand appends them straight into the buffer, so each
// child is written once. A stolen prefix at least half the used length is
// compacted away first, so a deque in steady state never grows.
func (d *deque) expand(t Task, tree Tree, r *rand.Rand) int {
	if d.top > 0 && 2*d.top >= d.bottom {
		d.compact()
	}
	buf := tree.Expand(d.buf[:d.bottom], t, r)
	n := len(buf) - d.bottom
	d.buf, d.bottom = buf[:cap(buf)], len(buf)
	return n
}

// popBottom removes the most recently pushed task (owner's end).
func (d *deque) popBottom() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	d.bottom--
	return d.buf[d.bottom], true
}

// stealTop removes the oldest task (thief's end).
func (d *deque) stealTop() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	d.top++
	return d.buf[d.top-1], true
}

// compact moves the live region to the front of the buffer.
func (d *deque) compact() {
	n := copy(d.buf, d.buf[d.top:d.bottom])
	d.top, d.bottom = 0, n
}

// grow makes room for one push: it compacts when that frees at least half
// the buffer and doubles capacity otherwise, amortising both the stolen
// prefix and true growth.
func (d *deque) grow() {
	if d.top > 0 && d.size() <= len(d.buf)/2 {
		d.compact()
		return
	}
	next := make([]Task, max(16, 2*len(d.buf)))
	d.bottom = copy(next, d.buf[d.top:d.bottom])
	d.buf, d.top = next, 0
}

// keptBuffers bounds the deque buffers that finished runtimes leave for
// later ones. Two 20-core runtimes, one per worker of a 2-CPU service,
// use 40. A 20-core UTS run at scale 0.03 grows each of its buffers to
// 1,280-1,792 tasks (20-28 KiB), so the list holds at most about 1.8 MiB.
const keptBuffers = 64

// spare is the process's free list of deque buffers, largest first. A
// runtime whose last round has joined gives its buffers back, and a new
// runtime's deques start from the largest ones, so a process running
// one work-stealing program after another stops regrowing its deques
// from empty. Reuse moves no report byte: a Task holds no pointer, and a
// deque reads only slots it wrote. Like a sync.Pool it is shared by the
// whole process; unlike one, the GC does not empty it and it hands out
// buffers by size.
var spare struct {
	sync.Mutex
	bufs []spareBuf
}

// spareBuf is one kept buffer and the index of the deque that last used
// it.
type spareBuf struct {
	buf   []Task
	deque int
}

// takeBuffers hands the largest spare buffers, one each, to the deques
// of ds while any are left. A buffer goes back to the deque index that
// last used it when that deque is free, so a re-run of the same program
// finds each deque's buffer already grown to that deque's peak.
func takeBuffers(ds []deque) {
	spare.Lock()
	defer spare.Unlock()
	n := min(len(ds), len(spare.bufs))
	top := spare.bufs[:n]
	for i, s := range top {
		if s.deque < len(ds) && ds[s.deque].buf == nil {
			ds[s.deque].buf, top[i].buf = s.buf, nil
		}
	}
	free := 0
	for _, s := range top {
		if s.buf != nil {
			for ds[free].buf != nil {
				free++
			}
			ds[free].buf = s.buf
		}
	}
	left := copy(spare.bufs, spare.bufs[n:])
	clear(spare.bufs[left:])
	spare.bufs = spare.bufs[:left]
}

// keepBuffers empties ds and puts their buffers on the free list, which
// keeps the keptBuffers largest. Every deque of ds must be empty.
func keepBuffers(ds []deque) {
	spare.Lock()
	defer spare.Unlock()
	for i := range ds {
		if cap(ds[i].buf) > 0 {
			spare.bufs = append(spare.bufs, spareBuf{buf: ds[i].buf, deque: i})
		}
		ds[i] = deque{}
	}
	slices.SortStableFunc(spare.bufs, func(a, b spareBuf) int { return cmp.Compare(cap(b.buf), cap(a.buf)) })
	if len(spare.bufs) > keptBuffers {
		clear(spare.bufs[keptBuffers:])
		spare.bufs = spare.bufs[:keptBuffers]
	}
}
