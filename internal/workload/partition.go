package workload

import "fmt"

// Partition statically divides a socket's cores among several co-running
// workloads — the paper's future-work scenario of Cuttlefish controlling
// the power of co-running components of a scientific workflow on one node.
//
// Each component owns a contiguous core range and sees component-local core
// indices, so any Source (work-sharing, work-stealing, a benchmark) can run
// unmodified inside its partition. Note what this implies for Cuttlefish:
// TIPI is measured socket-wide, so the daemon observes the *blend* of the
// components' memory access patterns and picks one frequency pair for the
// whole socket — the experiment in partition_test.go quantifies that
// limitation.
type Partition struct {
	comps []component
}

type component struct {
	src        Source
	start, end int // [start, end) global core range
}

// NewPartition creates an empty partition over nothing; add components
// with Assign.
func NewPartition() *Partition { return &Partition{} }

// Assign gives src the global cores [start, end). Ranges must not overlap.
func (p *Partition) Assign(src Source, start, end int) error {
	if src == nil {
		return fmt.Errorf("workload: nil source")
	}
	if start < 0 || end <= start {
		return fmt.Errorf("workload: invalid core range [%d,%d)", start, end)
	}
	for _, c := range p.comps {
		if start < c.end && c.start < end {
			return fmt.Errorf("workload: core range [%d,%d) overlaps [%d,%d)", start, end, c.start, c.end)
		}
	}
	p.comps = append(p.comps, component{src: src, start: start, end: end})
	return nil
}

// NextSegment routes the machine's request to the component owning the
// core, translating to component-local core numbering.
func (p *Partition) NextSegment(core int, now float64) (Segment, bool) {
	for _, c := range p.comps {
		if core >= c.start && core < c.end {
			return c.src.NextSegment(core-c.start, now)
		}
	}
	return Segment{}, false // unassigned cores idle
}

// Complete routes completion to the owning component.
func (p *Partition) Complete(core int, now float64) {
	for _, c := range p.comps {
		if core >= c.start && core < c.end {
			c.src.Complete(core-c.start, now)
			return
		}
	}
}

// Done reports whether every component has finished.
func (p *Partition) Done() bool {
	for _, c := range p.comps {
		if !c.src.Done() {
			return false
		}
	}
	return true
}
