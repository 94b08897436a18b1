// Package tipi implements Cuttlefish's memory-access-pattern bookkeeping:
// TIPI slab arithmetic (unique TIPI values are bucketed into fixed-width
// slabs of 0.004, §3.2) and the sorted doubly linked list of slab nodes the
// daemon maintains (§4.2). Each node carries, for both frequency domains,
// the per-frequency JPI averaging tables, the live exploration bounds, and
// the resolved optimum.
//
// Moving left→right through the list is moving from compute-bound toward
// memory-bound MAPs; that ordering is what lets neighbours tighten each
// other's exploration ranges (§4.4, §4.5).
package tipi

import (
	"fmt"
	"math"
)

// DefaultSlabWidth is the paper's empirically derived TIPI slab width.
const DefaultSlabWidth = 0.004

// Slab identifies a TIPI range [index·width, (index+1)·width).
type Slab int

// SlabOf buckets a TIPI value with the given slab width.
func SlabOf(tipi, width float64) Slab {
	if width <= 0 {
		panic(fmt.Sprintf("tipi: non-positive slab width %g", width))
	}
	if tipi < 0 {
		tipi = 0
	}
	return Slab(tipi / width)
}

// Bounds returns the slab's TIPI interval [lo, hi) for the given width:
// exactly the values SlabOf maps to s.
func (s Slab) Bounds(width float64) (lo, hi float64) {
	return s.edge(width), (s + 1).edge(width)
}

// edge is the smallest non-negative float64 that SlabOf maps to s or
// above. float64(s)*width rounds to within an ulp or two of it, on either
// side, so step from there until SlabOf agrees.
func (s Slab) edge(width float64) float64 {
	x := float64(s) * width
	for SlabOf(x, width) < s {
		x = math.Nextafter(x, math.Inf(1))
	}
	for x > 0 && SlabOf(math.Nextafter(x, math.Inf(-1)), width) >= s {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// Format renders the slab the way the paper's tables do, e.g. "0.024-0.028".
func (s Slab) Format(width float64) string {
	lo, hi := s.Bounds(width)
	return fmt.Sprintf("%.3f-%.3f", lo, hi)
}
