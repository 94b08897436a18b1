package tipi

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/freq"
)

func TestSlabOf(t *testing.T) {
	cases := []struct {
		tipi float64
		want Slab
	}{
		{0, 0}, {0.0039, 0}, {0.004, 1}, {0.0065, 1}, {0.026, 6}, {0.152, 38},
	}
	for _, c := range cases {
		if got := SlabOf(c.tipi, DefaultSlabWidth); got != c.want {
			t.Errorf("SlabOf(%g) = %d, want %d", c.tipi, got, c.want)
		}
	}
	if got := SlabOf(-0.5, DefaultSlabWidth); got != 0 {
		t.Errorf("negative TIPI should clamp to slab 0, got %d", got)
	}
}

func TestSlabFormat(t *testing.T) {
	s := SlabOf(0.026, DefaultSlabWidth)
	if got := s.Format(DefaultSlabWidth); got != "0.024-0.028" {
		t.Errorf("Format = %q, want paper-style 0.024-0.028", got)
	}
}

func TestSlabBoundsRoundTripQuick(t *testing.T) {
	prop := func(raw uint16) bool {
		tipi := float64(raw) / 10000 // 0..6.55
		s := SlabOf(tipi, DefaultSlabWidth)
		lo, hi := s.Bounds(DefaultSlabWidth)
		return lo <= tipi && tipi < hi+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSlabBoundsExactForEveryQuickInput walks every input the quick check
// above draws from and requires Bounds to hold the TIPI SlabOf mapped it
// from, with no slack: a TIPI on a slab edge where float64(s)*width rounds
// an ulp above it must still lie inside its own slab.
func TestSlabBoundsExactForEveryQuickInput(t *testing.T) {
	for raw := 0; raw <= math.MaxUint16; raw++ {
		tipi := float64(raw) / 10000
		s := SlabOf(tipi, DefaultSlabWidth)
		if lo, hi := s.Bounds(DefaultSlabWidth); !(lo <= tipi && tipi < hi) {
			t.Errorf("TIPI %v in slab %d, outside its bounds [%v, %v)", tipi, s, lo, hi)
		}
	}
}

func newCFExplorer() *Explorer { return NewExplorer(freq.HaswellCore()) }

func TestExplorerDefaults(t *testing.T) {
	e := newCFExplorer()
	if e.LB() != 0 || e.RB() != e.Grid().MaxLevel() {
		t.Errorf("default bounds = [%d,%d], want full grid", e.LB(), e.RB())
	}
	if e.HasOpt() {
		t.Error("fresh explorer must not have an optimum")
	}
}

func TestExplorerAveraging(t *testing.T) {
	e := newCFExplorer()
	for i := 0; i < SamplesPerAvg-1; i++ {
		e.Record(5, 2.0)
		if _, ok := e.Avg(5); ok {
			t.Fatalf("average complete after %d readings", i+1)
		}
	}
	e.Record(5, 4.0)
	avg, ok := e.Avg(5)
	if !ok {
		t.Fatal("average missing after 10 readings")
	}
	want := (2.0*9 + 4.0) / 10
	if avg != want {
		t.Errorf("avg = %g, want %g", avg, want)
	}
	// Frozen after completion.
	e.Record(5, 100)
	if got, _ := e.Avg(5); got != want {
		t.Errorf("average changed after completion: %g", got)
	}
}

func TestExplorerNarrowing(t *testing.T) {
	e := newCFExplorer()
	e.NarrowRB(8)
	e.NarrowLB(3)
	if e.LB() != 3 || e.RB() != 8 {
		t.Errorf("bounds = [%d,%d], want [3,8]", e.LB(), e.RB())
	}
	// Widening attempts are ignored.
	e.NarrowRB(11)
	e.NarrowLB(0)
	if e.LB() != 3 || e.RB() != 8 {
		t.Errorf("bounds widened to [%d,%d]", e.LB(), e.RB())
	}
	// Crossing clamps and resolves.
	e.NarrowLB(10)
	if !e.HasOpt() || e.Opt() != 8 {
		t.Errorf("crossing narrow should resolve opt at RB, got opt=%d hasOpt=%v", e.Opt(), e.HasOpt())
	}
}

func TestExplorerNarrowIgnoredAfterOpt(t *testing.T) {
	e := newCFExplorer()
	e.SetOpt(4)
	e.NarrowLB(6)
	e.NarrowRB(2)
	if e.Opt() != 4 || e.LB() != 4 || e.RB() != 4 {
		t.Error("narrowing must not move a resolved optimum")
	}
}

func TestExplorerCollapseResolves(t *testing.T) {
	e := newCFExplorer()
	e.SetBounds(7, 7)
	if !e.HasOpt() || e.Opt() != 7 {
		t.Error("LB == RB must resolve the optimum (Alg. 2 line 20-21)")
	}
}

func TestChooseAdjacentFig5(t *testing.T) {
	// Fig. 5(a): pair at the top of the grid → pick the higher frequency.
	e := newCFExplorer()
	top := e.Grid().MaxLevel()
	e.SetBounds(top-1, top)
	if got := e.ChooseAdjacent(); got != top {
		t.Errorf("upper-grid adjacent pair resolved to %d, want RB %d (compute-bound keeps speed)", got, top)
	}
	// Fig. 5(b): pair near the bottom → pick the lower frequency.
	e2 := newCFExplorer()
	e2.SetBounds(1, 2)
	if got := e2.ChooseAdjacent(); got != 1 {
		t.Errorf("lower-grid adjacent pair resolved to %d, want LB 1 (memory-bound saves energy)", got)
	}
	// §4.5 example: (D,E) = levels (3,4) on a 7-level grid resolves to E.
	g := freq.Grid{Min: 10, Max: 16} // 7 levels, A..G
	e3 := NewExplorer(g)
	e3.SetBounds(3, 4)
	if got := e3.ChooseAdjacent(); got != 4 {
		t.Errorf("mid-upper pair resolved to %d, want 4 (E)", got)
	}
}

func TestBoundOrOpt(t *testing.T) {
	e := newCFExplorer()
	e.SetBounds(2, 9)
	if e.BoundOrOptLB() != 2 || e.BoundOrOptRB() != 9 {
		t.Error("unresolved explorer must report bounds")
	}
	e.SetOpt(5)
	if e.BoundOrOptLB() != 5 || e.BoundOrOptRB() != 5 {
		t.Error("resolved explorer must report the optimum")
	}
}

func TestListSortedInsert(t *testing.T) {
	l := NewList(freq.HaswellCore(), freq.HaswellUncore())
	for _, s := range []Slab{5, 1, 9, 3, 1} { // duplicate 1 on purpose
		l.Insert(s)
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4 (duplicate collapsed)", l.Len())
	}
	var got []Slab
	for n := l.Front(); n != nil; n = n.Next() {
		got = append(got, n.Slab)
	}
	want := []Slab{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestListNeighbourLinks(t *testing.T) {
	l := NewList(freq.HaswellCore(), freq.HaswellUncore())
	l.Insert(3)
	l.Insert(1)
	mid := l.Insert(2)
	if mid.Prev() == nil || mid.Prev().Slab != 1 {
		t.Error("prev link broken")
	}
	if mid.Next() == nil || mid.Next().Slab != 3 {
		t.Error("next link broken")
	}
	if l.Front().Prev() != nil {
		t.Error("head must have nil prev")
	}
}

func TestListLookup(t *testing.T) {
	l := NewList(freq.HaswellCore(), freq.HaswellUncore())
	l.Insert(4)
	if l.Lookup(4) == nil {
		t.Error("lookup of existing slab failed")
	}
	if l.Lookup(2) != nil || l.Lookup(9) != nil {
		t.Error("lookup invented a node")
	}
}

func TestListInsertReturnsExisting(t *testing.T) {
	l := NewList(freq.HaswellCore(), freq.HaswellUncore())
	a := l.Insert(7)
	a.Hits = 42
	b := l.Insert(7)
	if a != b || b.Hits != 42 {
		t.Error("inserting an existing slab must return the existing node")
	}
}

// Property: after inserting any slab sequence the list is sorted, len
// matches the number of distinct slabs, and prev/next are consistent.
func TestListInvariantsQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		l := NewList(freq.HaswellCore(), freq.HaswellUncore())
		distinct := map[Slab]bool{}
		for _, r := range raw {
			s := Slab(r % 40)
			l.Insert(s)
			distinct[s] = true
		}
		if l.Len() != len(distinct) {
			return false
		}
		prevSlab := Slab(-1)
		for n := l.Front(); n != nil; n = n.Next() {
			if n.Slab <= prevSlab {
				return false
			}
			if n.Next() != nil && n.Next().Prev() != n {
				return false
			}
			prevSlab = n.Slab
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
