package msr

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodingRoundTrips(t *testing.T) {
	if got := PerfCtlRatio(PerfCtlRaw(23)); got != 23 {
		t.Errorf("perf ctl round trip = %d, want 23", got)
	}
	lo, hi := UncoreLimitRatios(UncoreLimitRaw(12, 30))
	if lo != 12 || hi != 30 {
		t.Errorf("uncore limit round trip = %d,%d want 12,30", lo, hi)
	}
}

func TestClockModEncoding(t *testing.T) {
	if got := ClockModDuty(ClockModRaw(0)); got != 1.0 {
		t.Errorf("level 0 duty = %g, want 1.0 (disabled)", got)
	}
	if got := ClockModDuty(ClockModRaw(4)); got != 0.5 {
		t.Errorf("level 4 duty = %g, want 0.5", got)
	}
	if got := ClockModDuty(ClockModRaw(7)); got != 7.0/8 {
		t.Errorf("level 7 duty = %g, want 7/8", got)
	}
	if got := ClockModDuty(ClockModRaw(9)); got != 1.0 {
		t.Errorf("out-of-range level should disable, got %g", got)
	}
	// Raw image without the enable bit means full speed.
	if got := ClockModDuty(3 << 1); got != 1.0 {
		t.Errorf("enable bit clear must mean duty 1.0, got %g", got)
	}
}

func TestEnergyUnit(t *testing.T) {
	got := EnergyUnitJoules(DefaultRaplPowerUnitRaw)
	want := 1.0 / 16384.0
	if got != want {
		t.Errorf("energy unit = %g, want %g (2^-14 J)", got, want)
	}
}

func TestFileCoreScopedIsolation(t *testing.T) {
	f := NewFile(4)
	if err := f.Write(IA32PerfCtl, 1, PerfCtlRaw(15)); err != nil {
		t.Fatal(err)
	}
	v0, _ := f.Read(IA32PerfCtl, 0)
	v1, _ := f.Read(IA32PerfCtl, 1)
	if v0 != 0 || PerfCtlRatio(v1) != 15 {
		t.Errorf("per-core banks leaked: core0=%#x core1=%#x", v0, v1)
	}
}

func TestFilePackageScopeRequiresCore0(t *testing.T) {
	f := NewFile(2)
	if _, err := f.Read(PkgEnergyStatus, 1); err == nil {
		t.Error("reading a package MSR via core 1 should fail")
	}
	if err := f.Write(UncoreRatioLimit, 1, 0); err == nil {
		t.Error("writing a package MSR via core 1 should fail")
	}
}

func TestFileCoreOutOfRange(t *testing.T) {
	f := NewFile(2)
	if _, err := f.Read(IA32PerfCtl, 7); err == nil {
		t.Error("core out of range should fail")
	}
}

func TestFileHandlers(t *testing.T) {
	f := NewFile(2)
	var wrote uint64
	f.Install(IA32PerfCtl, Handler{
		Read:  func(core int) uint64 { return uint64(core) + 100 },
		Write: func(core int, v uint64) error { wrote = v; return nil },
	})
	v, err := f.Read(IA32PerfCtl, 1)
	if err != nil || v != 101 {
		t.Errorf("handler read = %d,%v want 101", v, err)
	}
	if err := f.Write(IA32PerfCtl, 0, 42); err != nil {
		t.Fatal(err)
	}
	if wrote != 42 {
		t.Errorf("handler write saw %d, want 42", wrote)
	}
}

func TestFileResetValues(t *testing.T) {
	f := NewFile(1)
	v, err := f.Read(RaplPowerUnit, 0)
	if err != nil || v != DefaultRaplPowerUnitRaw {
		t.Errorf("RAPL power unit reset = %#x, want %#x", v, DefaultRaplPowerUnitRaw)
	}
}

func TestSnapshotRestore(t *testing.T) {
	f := NewFile(2)
	f.Write(IA32PerfCtl, 0, PerfCtlRaw(20))
	f.Write(UncoreRatioLimit, 0, UncoreLimitRaw(22, 22))
	snap := f.Snapshot()
	f.Write(IA32PerfCtl, 0, PerfCtlRaw(12))
	f.Write(UncoreRatioLimit, 0, UncoreLimitRaw(12, 12))
	if err := f.Restore(snap); err != nil {
		t.Fatal(err)
	}
	v, _ := f.Read(IA32PerfCtl, 0)
	if PerfCtlRatio(v) != 20 {
		t.Errorf("restored ratio = %d, want 20", PerfCtlRatio(v))
	}
}

func TestDeviceDeniesUnlistedWrites(t *testing.T) {
	d := NewDevice(NewFile(2), DefaultAllowlist())
	err := d.Write(PkgEnergyStatus, 0, 1)
	var denied *ErrDenied
	if !errors.As(err, &denied) || !denied.Write {
		t.Errorf("write to RAPL counter should be denied, got %v", err)
	}
	if _, err := d.Read(PkgEnergyStatus, 0); err != nil {
		t.Errorf("read should pass with AllowReadAll: %v", err)
	}
}

func TestDeviceDeniesReadsWithoutAllowReadAll(t *testing.T) {
	al := Allowlist{WriteMask: map[uint32]uint64{IA32PerfCtl: 0xffff}}
	d := NewDevice(NewFile(1), al)
	if _, err := d.Read(PkgEnergyStatus, 0); err == nil {
		t.Error("unlisted read should be denied")
	}
	if _, err := d.Read(IA32PerfCtl, 0); err != nil {
		t.Errorf("listed read should pass: %v", err)
	}
}

func TestDeviceWriteMasking(t *testing.T) {
	f := NewFile(1)
	f.Write(IA32PerfCtl, 0, 0xabcd_0000)
	al := Allowlist{WriteMask: map[uint32]uint64{IA32PerfCtl: 0xffff}}
	d := NewDevice(f, al)
	if err := d.Write(IA32PerfCtl, 0, PerfCtlRaw(18)); err != nil {
		t.Fatal(err)
	}
	v, _ := f.Read(IA32PerfCtl, 0)
	if v != 0xabcd_0000|PerfCtlRaw(18) {
		t.Errorf("masked write clobbered protected bits: %#x", v)
	}
}

func TestDeviceSaveRestore(t *testing.T) {
	f := NewFile(2)
	d := NewDevice(f, DefaultAllowlist())
	d.Write(IA32PerfCtl, 0, PerfCtlRaw(23))
	d.Write(IA32PerfCtl, 1, PerfCtlRaw(23))
	d.Save()
	d.Write(IA32PerfCtl, 0, PerfCtlRaw(12))
	d.Write(UncoreRatioLimit, 0, UncoreLimitRaw(12, 12))
	if err := d.Restore(); err != nil {
		t.Fatal(err)
	}
	v, _ := f.Read(IA32PerfCtl, 0)
	if PerfCtlRatio(v) != 23 {
		t.Errorf("restore: core0 ratio = %d, want 23", PerfCtlRatio(v))
	}
}

func TestRestoreWithoutSaveIsNoop(t *testing.T) {
	d := NewDevice(NewFile(1), DefaultAllowlist())
	if err := d.Restore(); err != nil {
		t.Errorf("restore without save should be nil, got %v", err)
	}
}

func TestParseAllowlist(t *testing.T) {
	input := `
# Cuttlefish msr-safe config
0x199 0xffff
0x620 0x7f7f   # uncore ratio limit
620 0          `
	al, err := ParseAllowlist(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if al.WriteMask[IA32PerfCtl] != 0xffff {
		t.Errorf("perf ctl mask = %#x", al.WriteMask[IA32PerfCtl])
	}
	// the later duplicate line (hex without prefix) overrides
	if al.WriteMask[UncoreRatioLimit] != 0 {
		t.Errorf("0x620 mask = %#x, want 0 (overridden)", al.WriteMask[UncoreRatioLimit])
	}
}

func TestParseAllowlistErrors(t *testing.T) {
	for _, bad := range []string{"0x199", "zz 0x1", "0x199 qq", "1 2 3"} {
		if _, err := ParseAllowlist(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAllowlist(%q) should fail", bad)
		}
	}
}

// Property: a masked write never alters bits outside the mask.
func TestWriteMaskPropertyQuick(t *testing.T) {
	f := NewFile(1)
	const mask = uint64(0x00ff_ff00)
	d := NewDevice(f, Allowlist{WriteMask: map[uint32]uint64{IA32PerfCtl: mask}})
	prop := func(initial, attempt uint64) bool {
		f.Poke(IA32PerfCtl, 0, initial)
		if err := d.Write(IA32PerfCtl, 0, attempt); err != nil {
			return false
		}
		got, _ := f.Read(IA32PerfCtl, 0)
		return got&^mask == initial&^mask && got&mask == attempt&mask
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestBanksStayAddressOrdered: cells stored in any order sit in strictly
// ascending address order, a snapshot is a copy the file no longer
// touches, and RestoreRaw copies a snapshot in without aliasing it.
func TestBanksStayAddressOrdered(t *testing.T) {
	f := NewFile(2)
	for _, addr := range []uint32{IA32FixedCtr0, IA32ClockModulation, IA32PerfStatus, IA32PerfCtl} {
		f.Poke(addr, 1, uint64(addr))
	}
	for _, addr := range []uint32{TorInsertMissRemote, UncoreRatioLimit, TorInsertMissLocal, PkgEnergyStatus} {
		f.Poke(addr, 0, uint64(addr))
	}
	s := f.Snapshot()
	wantCore := []Cell{{IA32PerfStatus, IA32PerfStatus}, {IA32PerfCtl, IA32PerfCtl}, {IA32ClockModulation, IA32ClockModulation}, {IA32FixedCtr0, IA32FixedCtr0}}
	wantPkg := []Cell{{RaplPowerUnit, DefaultRaplPowerUnitRaw}, {PkgEnergyStatus, PkgEnergyStatus}, {UncoreRatioLimit, UncoreRatioLimit},
		{TorInsertMissLocal, TorInsertMissLocal}, {TorInsertMissRemote, TorInsertMissRemote}}
	if !slices.Equal(s.PerCore[1], wantCore) || len(s.PerCore[0]) != 0 || !slices.Equal(s.Pkg, wantPkg) {
		t.Fatalf("snapshot banks = %v, %v, %v; want %v, [], %v", s.Pkg, s.PerCore[0], s.PerCore[1], wantPkg, wantCore)
	}
	f.Poke(IA32PerfCtl, 1, 0)
	if s.PerCore[1][1].Val != IA32PerfCtl {
		t.Error("a store after Snapshot reached the snapshot")
	}
	g := NewFile(2)
	if err := g.RestoreRaw(s); err != nil {
		t.Fatal(err)
	}
	s.PerCore[1][0].Val = 0
	if v, _ := g.Read(IA32PerfStatus, 1); v != IA32PerfStatus {
		t.Errorf("restored PERF_STATUS = %#x after the snapshot changed, want %#x", v, IA32PerfStatus)
	}
	if got := g.Snapshot(); !slices.Equal(got.Pkg, wantPkg) || !slices.Equal(got.PerCore[1], []Cell{{IA32PerfStatus, IA32PerfStatus}, wantCore[1], wantCore[2], wantCore[3]}) {
		t.Errorf("restored file snapshots as %v, %v", got.Pkg, got.PerCore)
	}
}

// TestDeviceSaveCapturesWritableCells: Save records exactly the
// allow-listed writable registers of every bank, in address order, with
// 0 for a register never stored.
func TestDeviceSaveCapturesWritableCells(t *testing.T) {
	f := NewFile(2)
	f.Poke(IA32PerfCtl, 0, PerfCtlRaw(23))
	f.Poke(IA32FixedCtr0, 0, 99)
	d := NewDevice(f, DefaultAllowlist())
	d.Save()
	want := Snapshot{
		Pkg:     []Cell{{UncoreRatioLimit, 0}},
		PerCore: [][]Cell{{{IA32PerfCtl, PerfCtlRaw(23)}, {IA32ClockModulation, 0}}, {{IA32PerfCtl, 0}, {IA32ClockModulation, 0}}},
	}
	got := *d.saved
	if !slices.Equal(got.Pkg, want.Pkg) || !slices.EqualFunc(got.PerCore, want.PerCore, slices.Equal) {
		t.Errorf("saved %v, want %v", got, want)
	}
}
