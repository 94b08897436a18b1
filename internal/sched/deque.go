package sched

// deque is a grow-able double-ended work queue in the Chase–Lev layout:
// the owning worker pushes and pops at the bottom (LIFO, cache-friendly
// depth-first execution), thieves steal from the top (FIFO, stealing the
// oldest and typically largest subtree). The machine never calls a runtime
// concurrently, so the structure carries the semantics rather than the
// lock-freedom of the original.
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

// popBottom removes the most recently pushed task (owner's end).
func (d *deque) popBottom() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	d.bottom--
	t := d.buf[d.bottom]
	d.buf[d.bottom] = Task{} // release references
	return t, true
}

// stealTop removes the oldest task (thief's end).
func (d *deque) stealTop() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	t := d.buf[d.top]
	d.buf[d.top] = Task{}
	d.top++
	return t, true
}

// grow compacts the live region to the front and doubles capacity when
// needed, amortising both the stolen prefix and true growth.
func (d *deque) grow() {
	n := d.size()
	if d.top > 0 && n <= len(d.buf)/2 {
		copy(d.buf, d.buf[d.top:d.bottom])
		for i := n; i < d.bottom; i++ {
			d.buf[i] = Task{}
		}
	} else {
		next := make([]Task, max(16, 2*len(d.buf)))
		copy(next, d.buf[d.top:d.bottom])
		d.buf = next
	}
	d.top, d.bottom = 0, n
}
