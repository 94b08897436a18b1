package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/freq"
	"repro/internal/tipi"
)

// ProfilerState is the profiler's counter baseline.
type ProfilerState struct {
	LastInstr  uint64
	LastTor    uint64
	LastEnergy uint32
	Primed     bool
}

// NodeState is one slab node of the daemon's TIPI list.
type NodeState struct {
	Slab       int
	CF         tipi.ExplorerState
	UF         tipi.ExplorerState
	UFRangeSet bool
	Hits       int
}

// DaemonState is the daemon's complete mutable state — everything a Tick
// can observe besides the machine's registers. nprev is recorded as an
// index into the slab-ordered node list (-1 = none), which survives
// serialization where a pointer cannot. Encode and DecodeDaemonState give
// it one canonical binary layout.
type DaemonState struct {
	NPrev     int
	CFPrev    int
	UFPrev    int
	WarmupEnd float64
	Warmed    bool
	Stopped   bool
	Samples   int
	Exploring int
	Profiler  ProfilerState
	Nodes     []NodeState
}

// StateSnapshot exports the daemon's mutable state. It fails if the
// daemon has latched an MSR error: an errored daemon stops adapting, and
// resuming that silence from a snapshot would hide the error.
func (d *Daemon) StateSnapshot() (*DaemonState, error) {
	if d.lastErr != nil {
		return nil, fmt.Errorf("core: daemon in error state: %w", d.lastErr)
	}
	st := &DaemonState{
		NPrev:     -1,
		CFPrev:    int(d.cfPrev),
		UFPrev:    int(d.ufPrev),
		WarmupEnd: d.warmupEnd,
		Warmed:    d.warmed,
		Stopped:   d.stopped,
		Samples:   d.samples,
		Exploring: d.exploring,
		Profiler: ProfilerState{
			LastInstr:  d.prof.lastInstr,
			LastTor:    d.prof.lastTor,
			LastEnergy: d.prof.lastEnergy,
			Primed:     d.prof.primed,
		},
		Nodes: make([]NodeState, 0, d.list.Len()),
	}
	for n := d.list.Front(); n != nil; n = n.Next() {
		if n == d.nprev {
			st.NPrev = len(st.Nodes)
		}
		st.Nodes = append(st.Nodes, NodeState{
			Slab:       int(n.Slab),
			CF:         n.CF.State(),
			UF:         n.UF.State(),
			UFRangeSet: n.UFRangeSet,
			Hits:       n.Hits,
		})
	}
	return st, nil
}

// StateRestore rebuilds the daemon's mutable state from a snapshot taken
// by StateSnapshot on a daemon with the same configuration and grids. The
// slab list is reconstructed node by node; the frequency registers
// themselves are machine state and restored separately.
//
// Every field must lie in the domain the write path produces — levels on
// their grids, counts and slabs non-negative, slabs strictly ascending,
// reading tables no fuller than tipi.SamplesPerAvg and finite — or the
// daemon is left untouched: an off-grid level would panic at the next
// frequency change.
func (d *Daemon) StateRestore(st *DaemonState) error {
	switch {
	case st.NPrev < -1 || st.NPrev >= len(st.Nodes):
		return fmt.Errorf("core: state nprev index %d out of range", st.NPrev)
	case st.CFPrev < 0 || st.CFPrev >= d.cfGrid.Levels():
		return fmt.Errorf("core: state cf_prev level %d is off the core grid %v", st.CFPrev, d.cfGrid)
	case st.UFPrev < 0 || st.UFPrev >= d.ufGrid.Levels():
		return fmt.Errorf("core: state uf_prev level %d is off the uncore grid %v", st.UFPrev, d.ufGrid)
	case math.IsNaN(st.WarmupEnd) || math.IsInf(st.WarmupEnd, 0):
		return fmt.Errorf("core: state warmup_end %g is not finite", st.WarmupEnd)
	case st.Samples < 0 || st.Exploring < 0:
		return fmt.Errorf("core: state counts %d samples, %d exploring", st.Samples, st.Exploring)
	}
	list := tipi.NewList(d.cfGrid, d.ufGrid)
	var nprev *tipi.Node
	for i, ns := range st.Nodes {
		switch {
		case ns.Slab < 0 || i > 0 && ns.Slab <= st.Nodes[i-1].Slab:
			return fmt.Errorf("core: state slab %d at node %d is negative or out of ascending order", ns.Slab, i)
		case ns.Hits < 0:
			return fmt.Errorf("core: state slab %d counts %d hits", ns.Slab, ns.Hits)
		}
		n := list.Insert(tipi.Slab(ns.Slab))
		if err := n.CF.SetState(ns.CF); err != nil {
			return fmt.Errorf("core: restoring slab %d CF: %w", ns.Slab, err)
		}
		if err := n.UF.SetState(ns.UF); err != nil {
			return fmt.Errorf("core: restoring slab %d UF: %w", ns.Slab, err)
		}
		n.UFRangeSet = ns.UFRangeSet
		n.Hits = ns.Hits
		if i == st.NPrev {
			nprev = n
		}
	}
	d.list = list
	d.nprev = nprev
	d.cfPrev = freq.Level(st.CFPrev)
	d.ufPrev = freq.Level(st.UFPrev)
	d.warmupEnd = st.WarmupEnd
	d.warmed = st.Warmed
	d.stopped = st.Stopped
	d.samples = st.Samples
	d.exploring = st.Exploring
	d.prof.lastInstr = st.Profiler.LastInstr
	d.prof.lastTor = st.Profiler.LastTor
	d.prof.lastEnergy = st.Profiler.LastEnergy
	d.prof.primed = st.Profiler.Primed
	return nil
}

// daemonStateMagic versions DaemonState's binary layout; bump it on any
// change so an older blob reads as a refusal, never as wrong state.
const daemonStateMagic = "cfdaem1\n"

// Encode serializes the state canonically (internal/canon): the magic,
// then every field in declaration order, int fields as 64 bits and the
// energy baseline as 32, the node table and each explorer's reading
// table prefixed by their lengths, each reading as its sum and a
// one-byte count. Equal states encode to equal bytes.
func (st *DaemonState) Encode() []byte {
	n := len(daemonStateMagic) + 6*8 + 2 + 8 + 8 + 4 + 1 + 4
	for i := range st.Nodes {
		n += 8 + explorerLen(st.Nodes[i].CF) + explorerLen(st.Nodes[i].UF) + 1 + 8
	}
	w := canon.Writer{B: make([]byte, 0, n)}
	w.Bytes([]byte(daemonStateMagic))
	w.I64(int64(st.NPrev))
	w.I64(int64(st.CFPrev))
	w.I64(int64(st.UFPrev))
	w.F64(st.WarmupEnd)
	w.Flag(st.Warmed)
	w.Flag(st.Stopped)
	w.I64(int64(st.Samples))
	w.I64(int64(st.Exploring))
	w.U64(st.Profiler.LastInstr)
	w.U64(st.Profiler.LastTor)
	w.U32(st.Profiler.LastEnergy)
	w.Flag(st.Profiler.Primed)
	w.U32(uint32(len(st.Nodes)))
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		w.I64(int64(ns.Slab))
		writeExplorer(&w, ns.CF)
		writeExplorer(&w, ns.UF)
		w.Flag(ns.UFRangeSet)
		w.I64(int64(ns.Hits))
	}
	return w.B
}

// explorerLen is one explorer's encoded length.
func explorerLen(e tipi.ExplorerState) int { return 3*8 + 4 + 9*len(e.Readings) }

func writeExplorer(w *canon.Writer, e tipi.ExplorerState) {
	w.I64(int64(e.LB))
	w.I64(int64(e.RB))
	w.I64(int64(e.Opt))
	w.U32(uint32(len(e.Readings)))
	for _, r := range e.Readings {
		w.F64(r.Sum)
		w.U8(uint8(r.N))
	}
}

// DecodeDaemonState parses Encode's layout. A bad magic, a short or
// over-long blob or a flag byte other than 0 or 1 is an error; the
// fields' domains are StateRestore's to check.
func DecodeDaemonState(raw []byte) (*DaemonState, error) {
	if !bytes.HasPrefix(raw, []byte(daemonStateMagic)) {
		return nil, errors.New("core: daemon state has a bad magic")
	}
	r := canon.NewReader(raw[len(daemonStateMagic):], "core: daemon state")
	st := &DaemonState{
		NPrev:     int(r.I64()),
		CFPrev:    int(r.I64()),
		UFPrev:    int(r.I64()),
		WarmupEnd: r.F64(),
		Warmed:    r.Flag(),
		Stopped:   r.Flag(),
		Samples:   int(r.I64()),
		Exploring: int(r.I64()),
		Profiler: ProfilerState{
			LastInstr:  r.U64(),
			LastTor:    r.U64(),
			LastEnergy: r.U32(),
			Primed:     r.Flag(),
		},
	}
	st.Nodes = make([]NodeState, r.Count(8+2*explorerLen(tipi.ExplorerState{})+1+8))
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		ns.Slab = int(r.I64())
		ns.CF = readExplorer(r)
		ns.UF = readExplorer(r)
		ns.UFRangeSet = r.Flag()
		ns.Hits = int(r.I64())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

func readExplorer(r *canon.Reader) tipi.ExplorerState {
	e := tipi.ExplorerState{LB: freq.Level(r.I64()), RB: freq.Level(r.I64()), Opt: freq.Level(r.I64())}
	e.Readings = make([]tipi.ReadingState, r.Count(9))
	for i := range e.Readings {
		e.Readings[i] = tipi.ReadingState{Sum: r.F64(), N: int(r.U8())}
	}
	return e
}
