package sched

import "math/rand"

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
