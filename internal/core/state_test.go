package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/timeline"
	"repro/internal/tipi"
	"repro/internal/workload"
)

// busyDaemon attaches a daemon (Tinv 5 ms, no warmup) to a fresh 4-core
// machine with a flight recorder and runs it for the given time on a
// program alternating compute and memory phases, so its slab list holds
// several nodes with partly filled reading tables.
func busyDaemon(t *testing.T, sec float64) (*machine.Machine, *Daemon) {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 4
	m := machine.MustNew(mcfg)
	m.SetTimeline(timeline.New("state-test"))
	cfg := DefaultConfig()
	cfg.TinvSec, cfg.WarmupSec = 5e-3, 0
	d, err := NewDaemon(cfg, m.Device(), mcfg.Cores, mcfg.CoreGrid, mcfg.UncoreGrid, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTimeline(m.Timeline())
	m.Schedule(&machine.Component{Period: cfg.TinvSec, Core: cfg.PinnedCore, Tick: d.Tick}, cfg.TinvSec)
	regions := []sched.Region{
		{Seg: workload.Segment{Instructions: 2e7, MissPerInstr: 5e-4, IPC: 2}, Chunks: 16},
		{Seg: workload.Segment{Instructions: 2e7, MissPerInstr: 0.02, IPC: 1.2, RemoteFrac: 0.2}, Chunks: 16},
	}
	m.SetSource(sched.NewWorkSharing(mcfg.Cores, sched.StaticProgram(regions, 40), 1))
	m.Run(sec)
	return m, d
}

// TestStateRestoreRefusesOffDomainState: a restored state must lie in
// the domain the daemon's write path produces. A cf_prev off the core
// grid used to be accepted and then panicked in freq.Grid.Ratio at the
// next frequency change with a flight recorder attached; every such
// state is refused and leaves the daemon as it was.
func TestStateRestoreRefusesOffDomainState(t *testing.T) {
	_, src := busyDaemon(t, 0.2)
	if st, err := src.StateSnapshot(); err != nil || len(st.Nodes) < 2 {
		t.Fatalf("busy daemon state has %d nodes (err %v), want at least 2", len(st.Nodes), err)
	}
	for _, tc := range []struct {
		name string
		edit func(st *DaemonState)
	}{
		{"cf_prev above the core grid", func(st *DaemonState) { st.CFPrev = 99 }},
		{"cf_prev below the core grid", func(st *DaemonState) { st.CFPrev = -1 }},
		{"uf_prev above the uncore grid", func(st *DaemonState) { st.UFPrev = src.ufGrid.Levels() }},
		{"uf_prev below the uncore grid", func(st *DaemonState) { st.UFPrev = -1 }},
		{"NaN warmup end", func(st *DaemonState) { st.WarmupEnd = math.NaN() }},
		{"infinite warmup end", func(st *DaemonState) { st.WarmupEnd = math.Inf(1) }},
		{"negative samples", func(st *DaemonState) { st.Samples = -1 }},
		{"negative exploring", func(st *DaemonState) { st.Exploring = -1 }},
		{"nprev past the nodes", func(st *DaemonState) { st.NPrev = len(st.Nodes) }},
		{"negative slab", func(st *DaemonState) { st.Nodes[0].Slab = -1 }},
		{"slabs out of order", func(st *DaemonState) { st.Nodes[0], st.Nodes[1] = st.Nodes[1], st.Nodes[0] }},
		{"repeated slab", func(st *DaemonState) { st.Nodes[1].Slab = st.Nodes[0].Slab }},
		{"negative hits", func(st *DaemonState) { st.Nodes[1].Hits = -1 }},
		{"CF bound off the grid", func(st *DaemonState) { st.Nodes[0].CF.RB = 99 }},
		{"UF optimum off the grid", func(st *DaemonState) { st.Nodes[0].UF.Opt = 99 }},
		{"reading count above SamplesPerAvg", func(st *DaemonState) { st.Nodes[0].CF.Readings[0].N = tipi.SamplesPerAvg + 1 }},
		{"negative reading count", func(st *DaemonState) { st.Nodes[0].UF.Readings[0].N = -1 }},
		{"NaN reading sum", func(st *DaemonState) { st.Nodes[1].CF.Readings[2].Sum = math.NaN() }},
		{"infinite reading sum", func(st *DaemonState) { st.Nodes[1].UF.Readings[2].Sum = math.Inf(-1) }},
	} {
		st, err := src.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(st)
		m, d := busyDaemon(t, 0.05)
		before, err := d.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.StateRestore(st); err == nil {
			t.Errorf("%s: StateRestore accepted the state", tc.name)
			continue
		}
		if after, _ := d.StateSnapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused StateRestore changed the daemon", tc.name)
		}
		m.Run(0.1)
	}

	// The unedited state restores, and the restored daemon runs on.
	st, err := src.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, d := busyDaemon(t, 0.05)
	if err := d.StateRestore(st); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	m.Run(0.1)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestDaemonStateDecodeRefusesNonCanonical: DecodeDaemonState accepts
// exactly Encode's bytes. A bad magic, any truncation, a trailing byte
// or a flag byte other than 0 or 1 is an error; Encode(Decode(b)) == b
// for the real blob.
func TestDaemonStateDecodeRefusesNonCanonical(t *testing.T) {
	_, d := busyDaemon(t, 0.2)
	st, err := d.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob := st.Encode()
	got, err := DecodeDaemonState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) || !bytes.Equal(got.Encode(), blob) {
		t.Fatal("decode → encode is not a fixed point")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeDaemonState(blob[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte blob decoded", n, len(blob))
		}
	}
	if _, err := DecodeDaemonState(append(blob[:len(blob):len(blob)], 0)); err == nil {
		t.Error("a trailing byte decoded")
	}
	bad := func(name string, edit func(b []byte)) {
		b := bytes.Clone(blob)
		edit(b)
		if _, err := DecodeDaemonState(b); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
	bad("bad magic", func(b []byte) { b[0] ^= 0xff })
	warmed := len(daemonStateMagic) + 4*8
	bad("warmed flag 2", func(b []byte) { b[warmed] = 2 })
}
