package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/msr"
	"repro/internal/sched"
	"repro/internal/workload"
)

// midRunMachine boots a machine on a work-sharing source and advances it
// partway through the program, so its snapshot carries non-trivial core,
// PMU, RAPL and uncore state.
func midRunMachine(t testing.TB) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regions := []sched.Region{
		{Seg: workload.Segment{Instructions: 4e8, MissPerInstr: 1e-3, IPC: 1.5, RemoteFrac: 0.2, Exposure: 0.5}, Chunks: 8, JitterFrac: 0.1},
		{Seg: workload.Segment{Instructions: 2e8, MissPerInstr: 8e-3, IPC: 0.7, RemoteFrac: 0.4, Exposure: 0.9}, Chunks: 8, JitterFrac: 0.1},
	}
	m.SetSource(sched.NewWorkSharing(cfg.Cores, sched.StaticProgram(regions, 4), 1))
	m.Run(0.02) // deadline mid-program: state is live, not final
	if m.Finished() {
		t.Fatal("workload finished before the snapshot point; enlarge it")
	}
	return m
}

// TestSnapshotEncodeDecodeRoundTrip pins the canonical serialization:
// decode(encode(s)) re-encodes to the identical byte sequence.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	m := midRunMachine(t)
	raw := m.Snapshot().Encode()
	s, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if again := s.Encode(); !bytes.Equal(raw, again) {
		t.Errorf("decode/encode is not a fixed point: %d vs %d bytes", len(raw), len(again))
	}
	if n := s.encodedLen(); n != len(raw) {
		t.Errorf("encodedLen = %d, Encode wrote %d bytes", n, len(raw))
	}
}

// FuzzDecodeSnapshot feeds arbitrary payloads to DecodeSnapshot, which
// reads what the memo tier hands back from disk. The target seals each
// payload with a fresh SHA-256 trailer, as Encode does, so mutations reach
// the magic, length and field decoding instead of stopping at the
// checksum. Decoding returns an error or a snapshot whose encoding decodes
// again and re-encodes to identical bytes; it never panics.
func FuzzDecodeSnapshot(f *testing.F) {
	raw := midRunMachine(f).Snapshot().Encode()
	payload := raw[:len(raw)-sha256.Size]
	f.Add(payload)
	f.Add(payload[:len(payload)-1])
	f.Add(payload[:len(snapshotMagic)+40])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sum := sha256.Sum256(payload)
		s, err := DecodeSnapshot(append(payload[:len(payload):len(payload)], sum[:]...))
		if err != nil {
			return
		}
		enc := s.Encode()
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("a decoded snapshot's encoding does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}

// TestSnapshotRestoreReproducesState restores a mid-run snapshot into a
// freshly booted machine and requires the restored machine's own snapshot
// to be byte-identical — every field the future depends on survived.
func TestSnapshotRestoreReproducesState(t *testing.T) {
	m := midRunMachine(t)
	raw := m.Snapshot().Encode()
	s, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 4
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(s); err != nil {
		t.Fatal(err)
	}
	if got := m2.Snapshot().Encode(); !bytes.Equal(raw, got) {
		t.Error("restored machine re-snapshots differently")
	}
	if m2.Now() != m.Now() {
		t.Errorf("restored Now = %g, want %g", m2.Now(), m.Now())
	}
}

// TestRestoreRejectsInvalidInFlightSegments: a snapshot that decodes can
// still hold state the write path never produces: an in-flight segment
// the engine would refuse from a source, or a core or uncore field off
// its domain (a NaN duty ran on to NaN joules). Restore must reject it
// before touching any state; a valid one restores.
func TestRestoreRejectsInvalidInFlightSegments(t *testing.T) {
	raw := midRunMachine(t).Snapshot().Encode()
	valid := workload.Segment{Instructions: 1e6, MissPerInstr: 1e-3, IPC: 1.5, RemoteFrac: 0.2, Exposure: 0.5}
	cfg := DefaultConfig()
	cfg.Cores = 4
	for _, tc := range []struct {
		name    string
		edit    func(s *Snapshot, c *CoreSnapshot)
		wantErr bool
	}{
		{"valid", func(*Snapshot, *CoreSnapshot) {}, false},
		{"zero IPC", func(_ *Snapshot, c *CoreSnapshot) { c.Seg.IPC = 0 }, true},
		{"negative IPC", func(_ *Snapshot, c *CoreSnapshot) { c.Seg.IPC = -2 }, true},
		{"remote fraction above 1", func(_ *Snapshot, c *CoreSnapshot) { c.Seg.RemoteFrac = 1.5 }, true},
		{"NaN instructions left", func(_ *Snapshot, c *CoreSnapshot) { c.SegLeft = math.NaN() }, true},
		{"negative instructions left", func(_ *Snapshot, c *CoreSnapshot) { c.SegLeft = -1 }, true},
		{"parked core keeps a stale segment", func(_ *Snapshot, c *CoreSnapshot) { c.HaveSeg, c.Seg.IPC = false, 0 }, false},
		{"duty 1/8", func(_ *Snapshot, c *CoreSnapshot) { c.Duty = 0.125 }, false},
		{"NaN duty", func(_ *Snapshot, c *CoreSnapshot) { c.Duty = math.NaN() }, true},
		{"zero duty", func(_ *Snapshot, c *CoreSnapshot) { c.Duty = 0 }, true},
		{"duty above 1", func(_ *Snapshot, c *CoreSnapshot) { c.Duty = 1.5 }, true},
		{"ratio above the core grid", func(_ *Snapshot, c *CoreSnapshot) { c.Ratio = cfg.CoreGrid.Max + 1 }, true},
		{"ratio below the core grid", func(_ *Snapshot, c *CoreSnapshot) { c.Ratio = cfg.CoreGrid.Min - 1 }, true},
		{"negative stolen time", func(_ *Snapshot, c *CoreSnapshot) { c.Stolen = -1e-3 }, true},
		{"infinite stolen time", func(_ *Snapshot, c *CoreSnapshot) { c.Stolen = math.Inf(1) }, true},
		{"NaN stolen time", func(_ *Snapshot, c *CoreSnapshot) { c.Stolen = math.NaN() }, true},
		{"uncore min off the grid", func(s *Snapshot, _ *CoreSnapshot) { s.UncoreMin = cfg.UncoreGrid.Min - 1 }, true},
		{"uncore max off the grid", func(s *Snapshot, _ *CoreSnapshot) { s.UncoreMax = cfg.UncoreGrid.Max + 1 }, true},
		{"uncore ratio above max", func(s *Snapshot, _ *CoreSnapshot) {
			s.UncoreMin, s.UncoreMax, s.UncoreRatio = cfg.UncoreGrid.Min, cfg.UncoreGrid.Min+2, cfg.UncoreGrid.Min+3
		}, true},
		{"uncore ratio below min", func(s *Snapshot, _ *CoreSnapshot) {
			s.UncoreMin, s.UncoreMax, s.UncoreRatio = cfg.UncoreGrid.Min+2, cfg.UncoreGrid.Max, cfg.UncoreGrid.Min+1
		}, true},
		{"one MSR core bank short", func(s *Snapshot, _ *CoreSnapshot) { s.MSR.PerCore = s.MSR.PerCore[1:] }, true},
	} {
		s, err := DecodeSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		c := &s.Cores[len(s.Cores)-1]
		c.Seg, c.SegLeft, c.HaveSeg = valid, 5e5, true
		tc.edit(s, c)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Snapshot().Encode()
		err = m.Restore(s)
		if !tc.wantErr {
			if err != nil {
				t.Errorf("%s: Restore: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Restore accepted the state", tc.name)
		}
		if !bytes.Equal(m.Snapshot().Encode(), before) {
			t.Errorf("%s: a rejected Restore changed the machine", tc.name)
		}
	}
}

// TestDecodeSnapshotRejectsCorruption flips single bytes and truncates
// the encoding at several points; the checksum trailer must catch every
// one rather than restoring silently wrong state.
func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	raw := midRunMachine(t).Snapshot().Encode()
	if _, err := DecodeSnapshot(raw); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 10, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0xff
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("flip at byte %d decoded without error", pos)
		}
	}
	for _, n := range []int{0, 7, len(raw) / 3, len(raw) - 1} {
		if _, err := DecodeSnapshot(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestSnapshotEncodingPinned pins the cfsnap1 bytes of one mid-run
// snapshot whose MSR banks hold several cells, some stored out of address
// order. Memo dirs keep these records across versions, so neither the
// layout nor the cell order may move; the digest is what the map-backed
// register file encoded.
func TestSnapshotEncodingPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Device()
	for c := 0; c < cfg.Cores; c++ {
		if err := dev.Write(msr.IA32ClockModulation, c, msr.ClockModRaw(uint8(4+c))); err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(cfg.CoreGrid.Min)+uint8(2*c))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(uint8(cfg.UncoreGrid.Min)+2, uint8(cfg.UncoreGrid.Max)-3)); err != nil {
		t.Fatal(err)
	}
	m.File().Poke(msr.TorInsertMissRemote, 0, 0x5eed)
	m.File().Poke(msr.IA32FixedCtr0, 2, 0xc0ffee)
	m.File().Poke(msr.IA32PerfStatus, 1, 0xbeef)
	m.File().Poke(msr.PkgEnergyStatus, 0, 0xfeed)
	regions := []sched.Region{
		{Seg: workload.Segment{Instructions: 4e8, MissPerInstr: 1e-3, IPC: 1.5, RemoteFrac: 0.2, Exposure: 0.5}, Chunks: 8, JitterFrac: 0.1},
		{Seg: workload.Segment{Instructions: 2e8, MissPerInstr: 8e-3, IPC: 0.7, RemoteFrac: 0.4, Exposure: 0.9}, Chunks: 8, JitterFrac: 0.1},
	}
	m.SetSource(sched.NewWorkSharing(cfg.Cores, sched.StaticProgram(regions, 4), 1))
	m.Run(0.02)
	if m.Finished() {
		t.Fatal("workload finished before the snapshot point")
	}
	sum := sha256.Sum256(m.Snapshot().Encode())
	const want = "ce56606423531def8f81b16b47e6c8eee4eaf3e4931b1f4f5832cea553250f24"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("cfsnap1 digest = %s, want %s", got, want)
	}
}

// TestSnapshotRefusesUnorderedBanks: Encode writes a bank's cells as it
// finds them, so a snapshot whose bank is out of address order, or
// repeats an address, encodes to bytes no register file produces.
// DecodeSnapshot must refuse them and RestoreRaw must refuse the bank.
func TestSnapshotRefusesUnorderedBanks(t *testing.T) {
	snapshot := func() *Snapshot {
		m := midRunMachine(t)
		m.File().Poke(msr.IA32FixedCtr0, 1, 7)
		return m.Snapshot()
	}
	for _, tc := range []struct {
		name string
		edit func(bank []msr.Cell)
	}{
		{"swapped", func(b []msr.Cell) { b[0], b[1] = b[1], b[0] }},
		{"repeated", func(b []msr.Cell) { b[1].Addr = b[0].Addr }},
	} {
		s := snapshot()
		tc.edit(s.MSR.Pkg)
		if _, err := DecodeSnapshot(s.Encode()); err == nil {
			t.Errorf("%s package bank: DecodeSnapshot accepted it", tc.name)
		}
		s = snapshot()
		tc.edit(s.MSR.PerCore[1])
		if _, err := DecodeSnapshot(s.Encode()); err == nil {
			t.Errorf("%s core bank: DecodeSnapshot accepted it", tc.name)
		}
		if err := midRunMachine(t).File().RestoreRaw(s.MSR); err == nil {
			t.Errorf("%s core bank: RestoreRaw accepted it", tc.name)
		}
	}
}
