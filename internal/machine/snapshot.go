package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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

// Encode serializes the snapshot canonically: fixed field order, sorted
// MSR addresses, IEEE-754 bit patterns for floats, and a SHA-256 trailer
// over the payload. Two snapshots of identical machine state encode to
// identical bytes, and any bit flip in storage fails the checksum.
func (s *Snapshot) Encode() []byte {
	var w encBuf
	w.bytes([]byte(snapshotMagic))
	w.f64(s.Now)
	w.f64(s.DemandEWMA)
	w.u8(uint8(s.UncoreMin))
	w.u8(uint8(s.UncoreMax))
	w.u8(uint8(s.UncoreRatio))
	w.u32(uint32(len(s.Cores)))
	for i := range s.Cores {
		c := &s.Cores[i]
		w.u8(uint8(c.Ratio))
		w.f64(c.Duty)
		w.f64(c.Seg.Instructions)
		w.f64(c.Seg.MissPerInstr)
		w.f64(c.Seg.IPC)
		w.f64(c.Seg.RemoteFrac)
		w.f64(c.Seg.Exposure)
		w.f64(c.SegLeft)
		w.bool(c.HaveSeg)
		w.f64(c.Stolen)
		w.f64(c.BusySec)
		w.f64(c.StallSec)
		w.f64(c.IdleSec)
	}
	w.f64(s.TotalInstr)
	w.f64(s.TotalMissL)
	w.f64(s.TotalMissR)
	w.f64(s.UncoreGHzSecs)
	w.msrBank(s.MSR.Pkg)
	w.u32(uint32(len(s.MSR.PerCore)))
	for _, bank := range s.MSR.PerCore {
		w.msrBank(bank)
	}
	w.u32(uint32(len(s.PMUInstr)))
	for _, v := range s.PMUInstr {
		w.f64(v)
	}
	w.f64(s.PMUTorLocal)
	w.f64(s.PMUTorRemote)
	w.f64(s.Rapl.PendingJ)
	w.f64(s.Rapl.ResidualJ)
	w.u32(s.Rapl.Counter)
	w.f64(s.Rapl.LastPublish)
	w.f64(s.Rapl.TotalJ)
	w.u32(uint32(len(s.Components)))
	for _, c := range s.Components {
		w.f64(c.Period)
		w.i64(int64(c.Core))
		w.f64(c.Next)
	}
	sum := sha256.Sum256(w.b)
	return append(w.b, sum[:]...)
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
	r := decBuf{b: payload[len(snapshotMagic):]}
	s := &Snapshot{}
	s.Now = r.f64()
	s.DemandEWMA = r.f64()
	s.UncoreMin = freq.Ratio(r.u8())
	s.UncoreMax = freq.Ratio(r.u8())
	s.UncoreRatio = freq.Ratio(r.u8())
	nCores := int(r.u32())
	if r.err == nil && nCores > maxSnapshotCores {
		return nil, fmt.Errorf("machine: snapshot claims %d cores", nCores)
	}
	if r.err == nil {
		s.Cores = make([]CoreSnapshot, nCores)
		for i := range s.Cores {
			c := &s.Cores[i]
			c.Ratio = freq.Ratio(r.u8())
			c.Duty = r.f64()
			c.Seg = workload.Segment{
				Instructions: r.f64(),
				MissPerInstr: r.f64(),
				IPC:          r.f64(),
				RemoteFrac:   r.f64(),
				Exposure:     r.f64(),
			}
			c.SegLeft = r.f64()
			c.HaveSeg = r.bool()
			c.Stolen = r.f64()
			c.BusySec = r.f64()
			c.StallSec = r.f64()
			c.IdleSec = r.f64()
		}
	}
	s.TotalInstr = r.f64()
	s.TotalMissL = r.f64()
	s.TotalMissR = r.f64()
	s.UncoreGHzSecs = r.f64()
	s.MSR.Pkg = r.msrBank()
	nBanks := int(r.u32())
	if r.err == nil && nBanks > maxSnapshotCores {
		return nil, fmt.Errorf("machine: snapshot claims %d MSR banks", nBanks)
	}
	if r.err == nil {
		s.MSR.PerCore = make([]map[uint32]uint64, nBanks)
		for i := range s.MSR.PerCore {
			s.MSR.PerCore[i] = r.msrBank()
		}
	}
	nPMU := int(r.u32())
	if r.err == nil && nPMU > maxSnapshotCores {
		return nil, fmt.Errorf("machine: snapshot claims %d PMU counters", nPMU)
	}
	if r.err == nil {
		s.PMUInstr = make([]float64, nPMU)
		for i := range s.PMUInstr {
			s.PMUInstr[i] = r.f64()
		}
	}
	s.PMUTorLocal = r.f64()
	s.PMUTorRemote = r.f64()
	s.Rapl.PendingJ = r.f64()
	s.Rapl.ResidualJ = r.f64()
	s.Rapl.Counter = r.u32()
	s.Rapl.LastPublish = r.f64()
	s.Rapl.TotalJ = r.f64()
	nComp := int(r.u32())
	if r.err == nil && nComp > maxSnapshotComponents {
		return nil, fmt.Errorf("machine: snapshot claims %d components", nComp)
	}
	if r.err == nil {
		s.Components = make([]ComponentSnapshot, nComp)
		for i := range s.Components {
			s.Components[i] = ComponentSnapshot{
				Period: r.f64(),
				Core:   int(r.i64()),
				Next:   r.f64(),
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("machine: %d trailing snapshot bytes", len(r.b))
	}
	return s, nil
}

// Sanity bounds for decoded lengths: generous multiples of anything a real
// configuration produces, so a corrupt length field can't drive a huge
// allocation (the checksum already catches random corruption; this guards
// the adversarial case).
const (
	maxSnapshotCores      = 1 << 16
	maxSnapshotComponents = 1 << 16
)

// encBuf is a minimal canonical binary writer (big-endian, IEEE-754 bits).
type encBuf struct{ b []byte }

func (w *encBuf) bytes(p []byte) { w.b = append(w.b, p...) }
func (w *encBuf) u8(v uint8)     { w.b = append(w.b, v) }
func (w *encBuf) u32(v uint32)   { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *encBuf) u64(v uint64)   { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *encBuf) i64(v int64)    { w.u64(uint64(v)) }
func (w *encBuf) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *encBuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *encBuf) msrBank(bank map[uint32]uint64) {
	addrs := make([]uint32, 0, len(bank))
	for a := range bank {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.u32(uint32(len(addrs)))
	for _, a := range addrs {
		w.u32(a)
		w.u64(bank[a])
	}
}

// decBuf is the matching reader; the first short read latches err and
// zero-fills every subsequent read.
type decBuf struct {
	b   []byte
	err error
}

func (r *decBuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("machine: snapshot truncated mid-field")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *decBuf) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *decBuf) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *decBuf) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *decBuf) i64() int64   { return int64(r.u64()) }
func (r *decBuf) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *decBuf) bool() bool   { return r.u8() != 0 }

func (r *decBuf) msrBank() map[uint32]uint64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("machine: snapshot claims %d MSR cells", n)
		return nil
	}
	bank := make(map[uint32]uint64, n)
	for i := 0; i < n; i++ {
		a := r.u32()
		v := r.u64()
		if r.err != nil {
			return nil
		}
		bank[a] = v
	}
	return bank
}
