package machine

import (
	"crypto/sha256"
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/freq"
	"repro/internal/msr"
	"repro/internal/power"
	"repro/internal/workload"
)

// BoundarySource is a workload source with countable execution boundaries
// (the work-sharing runtime's barrier-delimited regions). When the
// attached source implements it, the engine ends every batch at a
// boundary crossing — unconditionally, whether or not the run is being
// memoized. That matters because the engine deposits PMU totals once per
// batch and floating-point addition is not associative: if batch splits
// depended on memoization being enabled, a memoized and a plain run of
// the same spec would diverge in the last ulp. With boundary batching
// always on, the machine state at a region boundary is a well-defined
// point of the simulation that Snapshot can capture and Restore can
// resume from bit-identically.
type BoundarySource interface {
	workload.Source
	// BoundaryCount returns how many boundaries (completed regions) have
	// occurred; the engine stops the current batch when it changes.
	BoundaryCount() int
}

// CoreSnapshot is one core's complete mutable state.
type CoreSnapshot struct {
	Ratio    freq.Ratio
	Duty     float64
	Seg      workload.Segment
	SegLeft  float64
	HaveSeg  bool
	Stolen   float64
	BusySec  float64
	StallSec float64
	IdleSec  float64
}

// ComponentSnapshot records a scheduled component's identity (period and
// pinned core, which Restore validates against the live machine) and its
// next deadline (which Restore realigns).
type ComponentSnapshot struct {
	Period float64
	Core   int
	Next   float64
}

// Snapshot is the complete post-batch state of a Machine: everything the
// next quantum's arithmetic can observe. Restoring it into a freshly
// booted machine (with the same configuration, governor attachment and
// source position) makes the remainder of the run bit-identical to never
// having stopped — the property the prefix-resume cache (internal/memo)
// is built on.
type Snapshot struct {
	Now           float64
	DemandEWMA    float64
	UncoreMin     freq.Ratio
	UncoreMax     freq.Ratio
	UncoreRatio   freq.Ratio
	Cores         []CoreSnapshot
	TotalInstr    float64
	TotalMissL    float64
	TotalMissR    float64
	UncoreGHzSecs float64
	MSR           msr.Snapshot
	PMUInstr      []float64
	PMUTorLocal   float64
	PMUTorRemote  float64
	Rapl          power.RaplState
	Components    []ComponentSnapshot
}

// Snapshot captures the machine's complete mutable state. It must be
// called between batches (after Run or Step returns), which is the only
// time the state is not checked out into the engine.
func (m *Machine) Snapshot() *Snapshot {
	msrSnap := m.file.Snapshot()
	instr, torL, torR := m.pmu.State()
	raplState := m.rapl.State()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Now:           m.now,
		DemandEWMA:    m.demandEWMA,
		UncoreMin:     m.uncoreMin,
		UncoreMax:     m.uncoreMax,
		UncoreRatio:   m.uncoreRatio,
		Cores:         make([]CoreSnapshot, len(m.cores)),
		TotalInstr:    m.totalInstr,
		TotalMissL:    m.totalMissL,
		TotalMissR:    m.totalMissR,
		UncoreGHzSecs: m.uncoreGHzSecs,
		MSR:           msrSnap,
		PMUInstr:      instr,
		PMUTorLocal:   torL,
		PMUTorRemote:  torR,
		Rapl:          raplState,
		Components:    m.events.snapshotBySeq(),
	}
	for i := range m.cores {
		c := &m.cores[i]
		s.Cores[i] = CoreSnapshot{
			Ratio:    c.ratio,
			Duty:     c.duty,
			Seg:      c.seg,
			SegLeft:  c.segLeft,
			HaveSeg:  c.haveSeg,
			Stolen:   c.stolen,
			BusySec:  c.busySec,
			StallSec: c.stallSec,
			IdleSec:  c.idleSec,
		}
	}
	return s
}

// Restore overwrites the machine's mutable state from a snapshot. The
// machine must have the same configuration and the same set of scheduled
// components (same count, periods and pinned cores, in scheduling order)
// as the machine the snapshot was taken from — in practice: boot a fresh
// machine, attach the same governor, then Restore. MSR cells are restored
// raw (no handler side effects): the handlers' backing state — core
// ratios, duty, uncore range, PMU, RAPL — is restored directly, so
// re-actuating writes would be redundant at best.
//
// An in-flight segment gets the check the engine gives every segment a
// source hands out: one that fails Segment.Valid, or whose remaining
// instruction count is negative or NaN, is an error, and the machine is
// left untouched.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.Cores) != m.cfg.Cores {
		return fmt.Errorf("machine: snapshot has %d cores, config has %d", len(s.Cores), m.cfg.Cores)
	}
	if len(s.PMUInstr) != m.cfg.Cores {
		return fmt.Errorf("machine: snapshot PMU has %d cores, config has %d", len(s.PMUInstr), m.cfg.Cores)
	}
	if len(s.MSR.PerCore) != m.cfg.Cores {
		return fmt.Errorf("machine: snapshot has %d MSR core banks, config has %d cores", len(s.MSR.PerCore), m.cfg.Cores)
	}
	// Every field must lie in the domain the write path produces: a NaN
	// duty or an off-grid ratio would run on to NaN joules, not fail.
	for i, c := range s.Cores {
		switch {
		case c.HaveSeg && (!c.Seg.Valid() || !(c.SegLeft >= 0)):
			return fmt.Errorf("machine: snapshot core %d holds invalid segment %v with %g instructions left", i, c.Seg, c.SegLeft)
		case !m.cfg.CoreGrid.Contains(c.Ratio):
			return fmt.Errorf("machine: snapshot core %d ratio %d is off the core grid %v", i, c.Ratio, m.cfg.CoreGrid)
		case !(c.Duty > 0 && c.Duty <= 1):
			return fmt.Errorf("machine: snapshot core %d duty %g is outside (0, 1]", i, c.Duty)
		case !(c.Stolen >= 0 && c.Stolen <= math.MaxFloat64):
			return fmt.Errorf("machine: snapshot core %d stolen time %g is negative or not finite", i, c.Stolen)
		}
	}
	if u := m.cfg.UncoreGrid; !u.Contains(s.UncoreMin) || !u.Contains(s.UncoreMax) ||
		!(s.UncoreMin <= s.UncoreRatio && s.UncoreRatio <= s.UncoreMax) {
		return fmt.Errorf("machine: snapshot uncore ratio %d in [%d, %d] is off the uncore grid %v or outside its range",
			s.UncoreRatio, s.UncoreMin, s.UncoreMax, u)
	}
	m.mu.Lock()
	comps := m.events.componentsBySeq()
	if len(comps) != len(s.Components) {
		m.mu.Unlock()
		return fmt.Errorf("machine: snapshot has %d components, machine has %d", len(s.Components), len(comps))
	}
	for i, c := range comps {
		cs := s.Components[i]
		if c.Period != cs.Period || c.Core != cs.Core {
			m.mu.Unlock()
			return fmt.Errorf("machine: component %d mismatch: snapshot (period %g, core %d) vs live (period %g, core %d)",
				i, cs.Period, cs.Core, c.Period, c.Core)
		}
	}
	for i, c := range comps {
		c.next = s.Components[i].Next
	}
	m.events.reinit()
	for i := range m.cores {
		cs := s.Cores[i]
		m.cores[i] = coreState{
			ratio:    cs.Ratio,
			duty:     cs.Duty,
			seg:      cs.Seg,
			segLeft:  cs.SegLeft,
			haveSeg:  cs.HaveSeg,
			stolen:   cs.Stolen,
			busySec:  cs.BusySec,
			stallSec: cs.StallSec,
			idleSec:  cs.IdleSec,
		}
	}
	m.uncoreMin, m.uncoreMax, m.uncoreRatio = s.UncoreMin, s.UncoreMax, s.UncoreRatio
	m.now = s.Now
	m.demandEWMA = s.DemandEWMA
	m.totalInstr = s.TotalInstr
	m.totalMissL = s.TotalMissL
	m.totalMissR = s.TotalMissR
	m.uncoreGHzSecs = s.UncoreGHzSecs
	m.mu.Unlock()
	if err := m.file.RestoreRaw(s.MSR); err != nil {
		return err
	}
	m.pmu.SetState(s.PMUInstr, s.PMUTorLocal, s.PMUTorRemote)
	m.rapl.SetState(s.Rapl)
	return nil
}

// snapshotMagic versions the canonical encoding; bump it on any layout
// change so stale disk snapshots decode as corrupt (= a cache miss)
// instead of as wrong state.
const snapshotMagic = "cfsnap1\n"

// Encode serializes the snapshot canonically: fixed field order, MSR
// cells in their banks' ascending address order, IEEE-754 bit patterns
// for floats, and a SHA-256 trailer over the payload. Two snapshots of
// identical machine state encode to identical bytes, and any bit flip in
// storage fails the checksum.
func (s *Snapshot) Encode() []byte {
	w := canon.Writer{B: make([]byte, 0, s.encodedLen())}
	w.Bytes([]byte(snapshotMagic))
	w.F64(s.Now)
	w.F64(s.DemandEWMA)
	w.U8(uint8(s.UncoreMin))
	w.U8(uint8(s.UncoreMax))
	w.U8(uint8(s.UncoreRatio))
	w.U32(uint32(len(s.Cores)))
	for i := range s.Cores {
		c := &s.Cores[i]
		w.U8(uint8(c.Ratio))
		w.F64(c.Duty)
		w.F64(c.Seg.Instructions)
		w.F64(c.Seg.MissPerInstr)
		w.F64(c.Seg.IPC)
		w.F64(c.Seg.RemoteFrac)
		w.F64(c.Seg.Exposure)
		w.F64(c.SegLeft)
		w.Flag(c.HaveSeg)
		w.F64(c.Stolen)
		w.F64(c.BusySec)
		w.F64(c.StallSec)
		w.F64(c.IdleSec)
	}
	w.F64(s.TotalInstr)
	w.F64(s.TotalMissL)
	w.F64(s.TotalMissR)
	w.F64(s.UncoreGHzSecs)
	writeBank(&w, s.MSR.Pkg)
	w.U32(uint32(len(s.MSR.PerCore)))
	for _, bank := range s.MSR.PerCore {
		writeBank(&w, bank)
	}
	w.U32(uint32(len(s.PMUInstr)))
	for _, v := range s.PMUInstr {
		w.F64(v)
	}
	w.F64(s.PMUTorLocal)
	w.F64(s.PMUTorRemote)
	w.F64(s.Rapl.PendingJ)
	w.F64(s.Rapl.ResidualJ)
	w.U32(s.Rapl.Counter)
	w.F64(s.Rapl.LastPublish)
	w.F64(s.Rapl.TotalJ)
	w.U32(uint32(len(s.Components)))
	for _, c := range s.Components {
		w.F64(c.Period)
		w.I64(int64(c.Core))
		w.F64(c.Next)
	}
	sum := sha256.Sum256(w.B)
	return append(w.B, sum[:]...)
}

// Encoded lengths of one core, one MSR cell and one component.
const (
	coreLen      = 1 + 11*8 + 1 // ratio, eleven floats and the segment flag
	cellLen      = 4 + 8
	componentLen = 3 * 8
)

// encodedLen is the exact length of Encode's output, so Encode fills one
// allocation.
func (s *Snapshot) encodedLen() int {
	const fixed = len(snapshotMagic) + 2*8 + 3 + 4 + 4*8 + 4 + 4 + 4 + 2*8 + 4*8 + 4 + 4 + sha256.Size
	n := fixed + coreLen*len(s.Cores) + cellLen*len(s.MSR.Pkg) + 8*len(s.PMUInstr) + componentLen*len(s.Components)
	for _, bank := range s.MSR.PerCore {
		n += 4 + cellLen*len(bank)
	}
	return n
}

// DecodeSnapshot parses bytes produced by Encode, verifying the magic and
// the checksum. Any truncation, corruption or version mismatch returns an
// error — callers treat that as a cache miss.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	if len(raw) < len(snapshotMagic)+sha256.Size {
		return nil, fmt.Errorf("machine: snapshot truncated (%d bytes)", len(raw))
	}
	payload, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if want := sha256.Sum256(payload); string(want[:]) != string(sum) {
		return nil, fmt.Errorf("machine: snapshot checksum mismatch")
	}
	if string(payload[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("machine: bad snapshot magic")
	}
	r := canon.NewReader(payload[len(snapshotMagic):], "machine: snapshot")
	s := &Snapshot{}
	s.Now = r.F64()
	s.DemandEWMA = r.F64()
	s.UncoreMin = freq.Ratio(r.U8())
	s.UncoreMax = freq.Ratio(r.U8())
	s.UncoreRatio = freq.Ratio(r.U8())
	s.Cores = make([]CoreSnapshot, r.Count(coreLen))
	for i := range s.Cores {
		c := &s.Cores[i]
		c.Ratio = freq.Ratio(r.U8())
		c.Duty = r.F64()
		c.Seg = workload.Segment{
			Instructions: r.F64(),
			MissPerInstr: r.F64(),
			IPC:          r.F64(),
			RemoteFrac:   r.F64(),
			Exposure:     r.F64(),
		}
		c.SegLeft = r.F64()
		c.HaveSeg = r.Flag()
		c.Stolen = r.F64()
		c.BusySec = r.F64()
		c.StallSec = r.F64()
		c.IdleSec = r.F64()
	}
	s.TotalInstr = r.F64()
	s.TotalMissL = r.F64()
	s.TotalMissR = r.F64()
	s.UncoreGHzSecs = r.F64()
	s.MSR.Pkg = readBank(r)
	s.MSR.PerCore = make([][]msr.Cell, r.Count(4))
	for i := range s.MSR.PerCore {
		s.MSR.PerCore[i] = readBank(r)
	}
	s.PMUInstr = make([]float64, r.Count(8))
	for i := range s.PMUInstr {
		s.PMUInstr[i] = r.F64()
	}
	s.PMUTorLocal = r.F64()
	s.PMUTorRemote = r.F64()
	s.Rapl.PendingJ = r.F64()
	s.Rapl.ResidualJ = r.F64()
	s.Rapl.Counter = r.U32()
	s.Rapl.LastPublish = r.F64()
	s.Rapl.TotalJ = r.F64()
	s.Components = make([]ComponentSnapshot, r.Count(componentLen))
	for i := range s.Components {
		s.Components[i] = ComponentSnapshot{
			Period: r.F64(),
			Core:   int(r.I64()),
			Next:   r.F64(),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeBank writes one MSR bank, its cells in the bank's address order.
func writeBank(w *canon.Writer, bank []msr.Cell) {
	w.U32(uint32(len(bank)))
	for _, c := range bank {
		w.U32(c.Addr)
		w.U64(c.Val)
	}
}

// readBank reads one MSR bank, refusing addresses that do not strictly
// ascend: Encode never writes such a bank, and a register file keeps
// that order.
func readBank(r *canon.Reader) []msr.Cell {
	bank := make([]msr.Cell, r.Count(cellLen))
	for i := range bank {
		bank[i] = msr.Cell{Addr: r.U32(), Val: r.U64()}
	}
	if !msr.Ascending(bank) {
		r.Fail("has an MSR bank whose addresses do not strictly ascend")
	}
	return bank
}
