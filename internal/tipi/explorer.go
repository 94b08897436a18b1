package tipi

import (
	"fmt"
	"math"

	"repro/internal/freq"
)

// SamplesPerAvg is how many Tinv readings make a usable JPI average
// (Algorithm 2: "JPI avg at any FQ is average of 10 readings").
const SamplesPerAvg = 10

// NoOpt marks an unresolved optimum (the paper's -1).
const NoOpt freq.Level = -1

// jpiAcc accumulates JPI readings at one frequency level.
type jpiAcc struct {
	sum float64
	n   int
}

// Explorer is one frequency domain's exploration state inside a slab node:
// the JPI table, the live [LB, RB] bounds, and the optimum once found. It
// corresponds to one FQ_table entry of the paper's node (Fig. 4a).
type Explorer struct {
	grid     freq.Grid
	lb, rb   freq.Level
	opt      freq.Level
	readings []jpiAcc
}

// NewExplorer creates a domain explorer over the full grid (the default
// exploration range of Algorithm 1 lines 10–11).
func NewExplorer(grid freq.Grid) *Explorer {
	return &Explorer{
		grid:     grid,
		lb:       0,
		rb:       grid.MaxLevel(),
		opt:      NoOpt,
		readings: make([]jpiAcc, grid.Levels()),
	}
}

// Grid returns the underlying frequency grid.
func (e *Explorer) Grid() freq.Grid { return e.grid }

// LB and RB return the current exploration bounds.
func (e *Explorer) LB() freq.Level { return e.lb }
func (e *Explorer) RB() freq.Level { return e.rb }

// Opt returns the resolved optimum level, or NoOpt.
func (e *Explorer) Opt() freq.Level { return e.opt }

// HasOpt reports whether the optimum is resolved.
func (e *Explorer) HasOpt() bool { return e.opt != NoOpt }

// OptRatio returns the optimum as a frequency ratio; it panics when
// unresolved (callers must check HasOpt).
func (e *Explorer) OptRatio() freq.Ratio { return e.grid.Ratio(e.opt) }

// SetOpt resolves the optimum and collapses the bounds onto it.
func (e *Explorer) SetOpt(l freq.Level) {
	e.checkLevel(l)
	e.opt = l
	e.lb, e.rb = l, l
}

// SetBounds replaces the exploration range (used by Algorithm 3's UF range
// estimation and §4.4 neighbour seeding).
func (e *Explorer) SetBounds(lb, rb freq.Level) {
	e.checkLevel(lb)
	e.checkLevel(rb)
	if lb > rb {
		panic(fmt.Sprintf("tipi: bounds inverted %d > %d", lb, rb))
	}
	e.lb, e.rb = lb, rb
	e.resolveCollapsed()
}

// NarrowLB raises the left bound to at least l (never widening, never
// crossing RB: a crossing means neighbour constraints already pin the
// optimum at RB).
func (e *Explorer) NarrowLB(l freq.Level) {
	if e.HasOpt() || l <= e.lb {
		return
	}
	if l > e.rb {
		l = e.rb
	}
	e.lb = l
	e.resolveCollapsed()
}

// NarrowRB lowers the right bound to at most l, mirroring NarrowLB.
func (e *Explorer) NarrowRB(l freq.Level) {
	if e.HasOpt() || l >= e.rb {
		return
	}
	if l < e.lb {
		l = e.lb
	}
	e.rb = l
	e.resolveCollapsed()
}

// resolveCollapsed sets the optimum when the bounds meet (Algorithm 2
// lines 20–21, also reached through §4.5 propagation as in Fig. 9b).
func (e *Explorer) resolveCollapsed() {
	if !e.HasOpt() && e.lb == e.rb {
		e.opt = e.lb
	}
}

// ReadingState is one frequency level's JPI accumulator.
type ReadingState struct {
	Sum float64
	N   int
}

// ExplorerState is the explorer's complete mutable state, exported for
// daemon snapshots (the grid is configuration, not state).
type ExplorerState struct {
	LB       freq.Level
	RB       freq.Level
	Opt      freq.Level
	Readings []ReadingState
}

// State exports the mutable exploration state.
func (e *Explorer) State() ExplorerState {
	s := ExplorerState{LB: e.lb, RB: e.rb, Opt: e.opt, Readings: make([]ReadingState, len(e.readings))}
	for i, acc := range e.readings {
		s.Readings[i] = ReadingState{Sum: acc.sum, N: acc.n}
	}
	return s
}

// SetState overwrites the exploration state from a snapshot taken by
// State. The reading table must match the grid's level count, and each
// reading must be one Record can produce: a finite sum over at most
// SamplesPerAvg readings. A refused state leaves the explorer untouched.
func (e *Explorer) SetState(s ExplorerState) error {
	if len(s.Readings) != e.grid.Levels() {
		return fmt.Errorf("tipi: state has %d readings, grid has %d levels", len(s.Readings), e.grid.Levels())
	}
	if s.LB < 0 || int(s.RB) >= e.grid.Levels() || s.LB > s.RB {
		return fmt.Errorf("tipi: state bounds [%d, %d] invalid for grid %v", s.LB, s.RB, e.grid)
	}
	if s.Opt != NoOpt && (s.Opt < 0 || int(s.Opt) >= e.grid.Levels()) {
		return fmt.Errorf("tipi: state optimum %d outside grid %v", s.Opt, e.grid)
	}
	for l, r := range s.Readings {
		if r.N < 0 || r.N > SamplesPerAvg || math.IsNaN(r.Sum) || math.IsInf(r.Sum, 0) {
			return fmt.Errorf("tipi: state reading at level %d sums %g over %d samples", l, r.Sum, r.N)
		}
	}
	e.lb, e.rb, e.opt = s.LB, s.RB, s.Opt
	for i, r := range s.Readings {
		e.readings[i] = jpiAcc{sum: r.Sum, n: r.N}
	}
	return nil
}

// Record adds one Tinv JPI reading at the given level (Algorithm 2 line 7).
// Readings beyond SamplesPerAvg are ignored: the average is frozen once
// complete, as in the paper.
func (e *Explorer) Record(l freq.Level, jpi float64) {
	e.checkLevel(l)
	acc := &e.readings[l]
	if acc.n >= SamplesPerAvg {
		return
	}
	acc.sum += jpi
	acc.n++
}

// Avg returns the completed JPI average at a level. ok is false until
// SamplesPerAvg readings have accumulated ("JPIavg NOT exists").
func (e *Explorer) Avg(l freq.Level) (float64, bool) {
	e.checkLevel(l)
	acc := e.readings[l]
	if acc.n < SamplesPerAvg {
		return 0, false
	}
	return acc.sum / float64(acc.n), true
}

// Samples returns how many readings exist at a level.
func (e *Explorer) Samples(l freq.Level) int {
	e.checkLevel(l)
	return e.readings[l].n
}

// Adjacent reports whether the bounds differ by exactly one level
// (Algorithm 2 line 2).
func (e *Explorer) Adjacent() bool { return e.rb-e.lb == 1 }

// ChooseAdjacent resolves the optimum between adjacent bounds per Fig. 5:
// a pair sitting in the upper half of the grid indicates a compute-bound
// MAP, so the higher frequency wins to protect performance; a pair in the
// lower half indicates memory-bound, so the lower frequency wins to
// maximise energy efficiency.
func (e *Explorer) ChooseAdjacent() freq.Level {
	if !e.Adjacent() {
		panic("tipi: ChooseAdjacent without adjacent bounds")
	}
	if int(e.lb+e.rb) >= int(e.grid.MaxLevel()) {
		e.SetOpt(e.rb)
	} else {
		e.SetOpt(e.lb)
	}
	return e.opt
}

// BoundOrOptLB returns the strongest lower-bound knowledge this explorer
// has: the optimum when resolved, otherwise LB. Used by §4.4/§4.5
// neighbour propagation.
func (e *Explorer) BoundOrOptLB() freq.Level {
	if e.HasOpt() {
		return e.opt
	}
	return e.lb
}

// BoundOrOptRB mirrors BoundOrOptLB for the upper bound.
func (e *Explorer) BoundOrOptRB() freq.Level {
	if e.HasOpt() {
		return e.opt
	}
	return e.rb
}

func (e *Explorer) checkLevel(l freq.Level) {
	if l < 0 || int(l) >= e.grid.Levels() {
		panic(fmt.Sprintf("tipi: level %d outside grid %v", l, e.grid))
	}
}
