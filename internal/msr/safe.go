package msr

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Allowlist mirrors msr-safe's approved-list: for each address, a write mask
// of bits software may modify. An address absent from the list is readable
// if AllowReadAll is set and never writable.
type Allowlist struct {
	AllowReadAll bool
	WriteMask    map[uint32]uint64
}

// DefaultAllowlist approves exactly the registers Cuttlefish needs, with the
// masks the paper's msr-safe configuration would carry: full PERF_CTL ratio
// field, the uncore min/max ratio fields, and read-only counters.
func DefaultAllowlist() Allowlist {
	return Allowlist{
		AllowReadAll: true,
		WriteMask: map[uint32]uint64{
			IA32PerfCtl:         0xffff,
			IA32ClockModulation: 0x1f,
			UncoreRatioLimit:    0x7f7f,
		},
	}
}

// ParseAllowlist reads the msr-safe text format: one "addr writemask" pair
// per line, '#' comments, blank lines ignored. Both fields are hex with an
// optional 0x prefix.
func ParseAllowlist(r io.Reader) (Allowlist, error) {
	al := Allowlist{AllowReadAll: true, WriteMask: make(map[uint32]uint64)}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return Allowlist{}, fmt.Errorf("msr: allowlist line %d: want \"addr writemask\", got %q", line, text)
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[0], "0x"), 16, 32)
		if err != nil {
			return Allowlist{}, fmt.Errorf("msr: allowlist line %d: bad address: %v", line, err)
		}
		mask, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			return Allowlist{}, fmt.Errorf("msr: allowlist line %d: bad mask: %v", line, err)
		}
		al.WriteMask[uint32(addr)] = mask
	}
	if err := sc.Err(); err != nil {
		return Allowlist{}, err
	}
	return al, nil
}

// ErrDenied is returned when an access violates the allow-list.
type ErrDenied struct {
	Addr  uint32
	Write bool
}

func (e *ErrDenied) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("msr: %s of %#x denied by allowlist", op, e.Addr)
}

// Device is the msr-safe-style access path: an allow-listed view of a File
// with save/restore of the writable registers, which is how the paper saves
// and restores MSR values around a run (§2).
type Device struct {
	file  *File
	allow Allowlist
	// pkgW and coreW are the writable package- and core-scoped addresses
	// in ascending order: the cells Save captures.
	pkgW, coreW []uint32

	mu    sync.Mutex
	saved *Snapshot
}

// NewDevice wraps file with the allow-list. Save captures the addresses
// the list makes writable when NewDevice runs.
func NewDevice(file *File, allow Allowlist) *Device {
	d := &Device{file: file, allow: allow}
	for _, addr := range slices.Sorted(maps.Keys(allow.WriteMask)) {
		if AddrScope(addr) == ScopeCore {
			d.coreW = append(d.coreW, addr)
		} else {
			d.pkgW = append(d.pkgW, addr)
		}
	}
	return d
}

// Read reads addr on core through the allow-list.
func (d *Device) Read(addr uint32, core int) (uint64, error) {
	if _, ok := d.allow.WriteMask[addr]; !ok && !d.allow.AllowReadAll {
		return 0, &ErrDenied{Addr: addr}
	}
	return d.file.Read(addr, core)
}

// Write writes addr on core, restricted to the allow-list's write mask:
// masked-out bits keep their current value, as msr-safe does.
func (d *Device) Write(addr uint32, core int, v uint64) error {
	mask, ok := d.allow.WriteMask[addr]
	if !ok || mask == 0 {
		return &ErrDenied{Addr: addr, Write: true}
	}
	if mask != ^uint64(0) {
		cur, err := d.file.Read(addr, core)
		if err != nil {
			return err
		}
		v = (cur &^ mask) | (v & mask)
	}
	return d.file.Write(addr, core, v)
}

// Save snapshots every writable register so Restore can put the machine back
// the way the library found it. A register never stored saves as 0.
func (d *Device) Save() {
	f := d.file
	np, nc := len(d.pkgW), len(d.coreW)
	cells := make([]Cell, np+f.cores*nc)
	s := Snapshot{Pkg: cells[:np:np], PerCore: make([][]Cell, f.cores)}
	f.mu.RLock()
	for i, addr := range d.pkgW {
		s.Pkg[i] = Cell{addr, lookup(f.pkgRegs, addr)}
	}
	for core, bank := range f.coreRegs {
		lo := np + core*nc
		saved := cells[lo : lo+nc : lo+nc]
		for i, addr := range d.coreW {
			saved[i] = Cell{addr, lookup(bank, addr)}
		}
		s.PerCore[core] = saved
	}
	f.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.saved = &s
}

// Restore writes the saved snapshot back. It is a no-op if Save was never
// called.
func (d *Device) Restore() error {
	d.mu.Lock()
	saved := d.saved
	d.mu.Unlock()
	if saved == nil {
		return nil
	}
	return d.file.Restore(*saved)
}
