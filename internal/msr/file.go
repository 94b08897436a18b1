package msr

import (
	"fmt"
	"slices"
	"sync"
)

// Handler lets a hardware model back an address with live state. Read is
// invoked with the core index (0 for package-scoped addresses); Write is
// invoked when software stores to the register. Either hook may be nil, in
// which case the plain storage cell is used for that direction.
type Handler struct {
	Read  func(core int) uint64
	Write func(core int, v uint64) error
}

// Cell is one stored register: its address and raw value.
type Cell struct {
	Addr uint32
	Val  uint64
}

// Bank capacities reserved at NewFile: the emulation defines four
// core-scoped addresses and five package-scoped ones, so no bank of a
// simulated machine outgrows its reservation.
const (
	coreBankCap = 4
	pkgBankCap  = 5
)

// File is the socket's register file: one bank per core plus one package
// bank, with optional live handlers per address. Each bank is a slice of
// cells in strictly ascending address order, so a snapshot is a copy and
// its encoding needs no sort. It is safe for concurrent use; the
// simulator's parallel step driver and the daemon may touch it from
// different goroutines.
type File struct {
	mu       sync.RWMutex
	cores    int
	coreRegs [][]Cell
	pkgRegs  []Cell
	handlers map[uint32]Handler
}

// NewFile creates a register file for a socket with the given core count and
// architectural reset values.
func NewFile(cores int) *File {
	if cores <= 0 {
		panic(fmt.Sprintf("msr: invalid core count %d", cores))
	}
	cells := make([]Cell, pkgBankCap+cores*coreBankCap)
	f := &File{
		cores:    cores,
		coreRegs: make([][]Cell, cores),
		pkgRegs:  append(cells[:0:pkgBankCap], Cell{RaplPowerUnit, DefaultRaplPowerUnitRaw}),
		handlers: make(map[uint32]Handler),
	}
	for i := range f.coreRegs {
		lo := pkgBankCap + i*coreBankCap
		f.coreRegs[i] = cells[lo : lo : lo+coreBankCap]
	}
	return f
}

// Cores returns the number of per-core banks.
func (f *File) Cores() int { return f.cores }

// Install backs addr with a live handler. Installing replaces any previous
// handler for the address.
func (f *File) Install(addr uint32, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[addr] = h
}

func (f *File) checkCore(addr uint32, core int) error {
	switch AddrScope(addr) {
	case ScopeCore:
		if core < 0 || core >= f.cores {
			return fmt.Errorf("msr: core %d out of range for addr %#x", core, addr)
		}
	case ScopePackage:
		if core != 0 {
			return fmt.Errorf("msr: package-scoped addr %#x must be accessed via core 0, got %d", addr, core)
		}
	}
	return nil
}

// Read returns the value of addr on the given core (0 for package scope).
func (f *File) Read(addr uint32, core int) (uint64, error) {
	if err := f.checkCore(addr, core); err != nil {
		return 0, err
	}
	f.mu.RLock()
	h, live := f.handlers[addr]
	f.mu.RUnlock()
	if live && h.Read != nil {
		return h.Read(core), nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if AddrScope(addr) == ScopeCore {
		return lookup(f.coreRegs[core], addr), nil
	}
	return lookup(f.pkgRegs, addr), nil
}

// Write stores v to addr on the given core (0 for package scope).
func (f *File) Write(addr uint32, core int, v uint64) error {
	if err := f.checkCore(addr, core); err != nil {
		return err
	}
	f.mu.RLock()
	h, live := f.handlers[addr]
	f.mu.RUnlock()
	if live && h.Write != nil {
		if err := h.Write(core, v); err != nil {
			return err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if AddrScope(addr) == ScopeCore {
		f.coreRegs[core] = store(f.coreRegs[core], addr, v)
	} else {
		f.pkgRegs = store(f.pkgRegs, addr, v)
	}
	return nil
}

// Poke stores a raw value without invoking handlers or scope checks beyond
// bounds. Hardware models use it to publish counter snapshots.
func (f *File) Poke(addr uint32, core int, v uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if AddrScope(addr) == ScopeCore && core >= 0 && core < f.cores {
		f.coreRegs[core] = store(f.coreRegs[core], addr, v)
		return
	}
	f.pkgRegs = store(f.pkgRegs, addr, v)
}

// Snapshot captures every stored register (handlers are not consulted), for
// msr-safe style save/restore. All banks share one array of cells.
func (f *File) Snapshot() Snapshot {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := len(f.pkgRegs)
	for _, bank := range f.coreRegs {
		n += len(bank)
	}
	cells := append(make([]Cell, 0, n), f.pkgRegs...)
	s := Snapshot{Pkg: cells[:len(cells):len(cells)], PerCore: make([][]Cell, f.cores)}
	for i, bank := range f.coreRegs {
		lo := len(cells)
		cells = append(cells, bank...)
		s.PerCore[i] = cells[lo:len(cells):len(cells)]
	}
	return s
}

// Restore writes a snapshot back through Write so handlers observe the
// restored values (the msr-safe semantics: restoring PERF_CTL re-actuates
// the frequency): the package bank first, then each core's, every bank in
// address order.
func (f *File) Restore(s Snapshot) error {
	if len(s.PerCore) > f.cores {
		return fmt.Errorf("msr: snapshot has %d cores, file has %d", len(s.PerCore), f.cores)
	}
	if err := s.ordered(); err != nil {
		return err
	}
	for _, c := range s.Pkg {
		if err := f.Write(c.Addr, 0, c.Val); err != nil {
			return err
		}
	}
	for core, bank := range s.PerCore {
		for _, c := range bank {
			if err := f.Write(c.Addr, core, c.Val); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreRaw replaces every stored cell with the snapshot's contents
// without invoking handlers — the machine-snapshot restore path, where the
// handlers' backing state (PMU, RAPL, frequency grids) is restored
// separately and a handler side effect would double-apply it. Unlike
// Restore, banks are replaced wholesale: cells absent from the snapshot
// are cleared, so the file's visible contents equal the snapshot exactly.
// The cells are copied; the file never aliases the snapshot.
func (f *File) RestoreRaw(s Snapshot) error {
	if len(s.PerCore) != f.cores {
		return fmt.Errorf("msr: snapshot has %d cores, file has %d", len(s.PerCore), f.cores)
	}
	if err := s.ordered(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pkgRegs = append(f.pkgRegs[:0], s.Pkg...)
	for core, bank := range s.PerCore {
		f.coreRegs[core] = append(f.coreRegs[core][:0], bank...)
	}
	return nil
}

// Snapshot is a point-in-time copy of the register file's stored cells,
// each bank in strictly ascending address order.
type Snapshot struct {
	Pkg     []Cell
	PerCore [][]Cell
}

// ordered refuses a snapshot with a bank out of address order, before
// any cell is written.
func (s Snapshot) ordered() error {
	if !Ascending(s.Pkg) {
		return fmt.Errorf("msr: snapshot package bank is not in ascending address order")
	}
	for core, bank := range s.PerCore {
		if !Ascending(bank) {
			return fmt.Errorf("msr: snapshot core %d bank is not in ascending address order", core)
		}
	}
	return nil
}

// Ascending reports whether a bank's addresses strictly ascend, the order
// every bank of a File and of its snapshots keeps.
func Ascending(bank []Cell) bool {
	for i := 1; i < len(bank); i++ {
		if bank[i].Addr <= bank[i-1].Addr {
			return false
		}
	}
	return true
}

// find returns where addr sits in an ascending bank, or where it would be
// inserted, and whether it is stored. Banks hold a handful of cells, so a
// scan beats a binary search.
func find(bank []Cell, addr uint32) (int, bool) {
	for i, c := range bank {
		if c.Addr >= addr {
			return i, c.Addr == addr
		}
	}
	return len(bank), false
}

// lookup returns addr's stored value in bank, 0 when it was never stored.
func lookup(bank []Cell, addr uint32) uint64 {
	if i, ok := find(bank, addr); ok {
		return bank[i].Val
	}
	return 0
}

// store sets addr to v in bank, inserting the cell in address order.
func store(bank []Cell, addr uint32, v uint64) []Cell {
	i, ok := find(bank, addr)
	if ok {
		bank[i].Val = v
		return bank
	}
	return slices.Insert(bank, i, Cell{addr, v})
}
