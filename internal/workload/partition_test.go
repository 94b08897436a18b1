package workload

import "testing"

// fakeSource records which local cores asked for work.
type fakeSource struct {
	seg    Segment
	budget int
	asked  map[int]int
	done   map[int]int
}

func newFake(seg Segment, budget int) *fakeSource {
	return &fakeSource{seg: seg, budget: budget, asked: map[int]int{}, done: map[int]int{}}
}

func (f *fakeSource) NextSegment(core int, now float64) (Segment, bool) {
	f.asked[core]++
	if f.budget == 0 {
		return Segment{}, false
	}
	f.budget--
	return f.seg, true
}
func (f *fakeSource) Complete(core int, now float64) { f.done[core]++ }
func (f *fakeSource) Done() bool                     { return f.budget == 0 }

func TestPartitionAssignValidation(t *testing.T) {
	p := NewPartition()
	if err := p.Assign(nil, 0, 4); err == nil {
		t.Error("nil source accepted")
	}
	if err := p.Assign(newFake(Segment{IPC: 1}, 1), 4, 4); err == nil {
		t.Error("empty range accepted")
	}
	if err := p.Assign(newFake(Segment{IPC: 1}, 1), 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(newFake(Segment{IPC: 1}, 1), 3, 6); err == nil {
		t.Error("overlapping range accepted")
	}
	if err := p.Assign(newFake(Segment{IPC: 1}, 1), 4, 8); err != nil {
		t.Errorf("adjacent range rejected: %v", err)
	}
}

func TestPartitionRoutesWithLocalCoreNumbers(t *testing.T) {
	a := newFake(Segment{Instructions: 1, IPC: 1}, 100)
	b := newFake(Segment{Instructions: 2, IPC: 1}, 100)
	p := NewPartition()
	p.Assign(a, 0, 2)
	p.Assign(b, 2, 5)

	if seg, ok := p.NextSegment(1, 0); !ok || seg.Instructions != 1 {
		t.Errorf("core 1 routed wrong: %v %v", seg, ok)
	}
	if seg, ok := p.NextSegment(4, 0); !ok || seg.Instructions != 2 {
		t.Errorf("core 4 routed wrong: %v %v", seg, ok)
	}
	if a.asked[1] != 1 || b.asked[2] != 1 {
		t.Errorf("local numbering broken: a=%v b=%v", a.asked, b.asked)
	}
	p.Complete(4, 0)
	if b.done[2] != 1 {
		t.Errorf("completion not routed locally: %v", b.done)
	}
}

func TestPartitionUnassignedCoresIdle(t *testing.T) {
	p := NewPartition()
	p.Assign(newFake(Segment{IPC: 1}, 10), 0, 2)
	if _, ok := p.NextSegment(7, 0); ok {
		t.Error("unassigned core received work")
	}
	p.Complete(7, 0) // must not panic
}

func TestPartitionDoneRequiresAllComponents(t *testing.T) {
	a := newFake(Segment{IPC: 1}, 0)
	b := newFake(Segment{IPC: 1}, 1)
	p := NewPartition()
	p.Assign(a, 0, 1)
	p.Assign(b, 1, 2)
	if p.Done() {
		t.Error("partition done while component b has work")
	}
	p.NextSegment(1, 0)
	if !p.Done() {
		t.Error("partition not done after all components drained")
	}
}

// orderedFake is a fakeSource that declares an order-dependent schedule.
type orderedFake struct{ *fakeSource }

func (orderedFake) OrderDependent() bool { return true }

// TestPartitionForwardsOrderDependence: a partition is order dependent as
// soon as one component is, so the machine steps the whole socket serially.
func TestPartitionForwardsOrderDependence(t *testing.T) {
	p := NewPartition()
	if err := p.Assign(newFake(Segment{IPC: 1}, 1), 0, 2); err != nil {
		t.Fatal(err)
	}
	if p.OrderDependent() {
		t.Error("a partition of order-independent sources reported order dependence")
	}
	if err := p.Assign(orderedFake{newFake(Segment{IPC: 1}, 1)}, 2, 4); err != nil {
		t.Fatal(err)
	}
	if !p.OrderDependent() {
		t.Error("a partition with an order-dependent component must report it")
	}
}
