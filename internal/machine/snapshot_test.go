package machine

import (
	"bytes"
	"crypto/sha256"
	"testing"

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
