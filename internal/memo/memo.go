// Package memo is the simulator's second cache tier: phase-boundary
// machine snapshots keyed by a prefix-chain hash, so a run whose spec
// shares a workload prefix with an earlier run can Restore() the last
// common boundary and simulate only the divergent suffix.
//
// The result cache (internal/service + internal/store) only pays off on
// byte-identical specs; this tier pays off on *structurally related*
// ones — the same scenario re-run with an edited, inserted or appended
// phase, or simply re-executed without the result cache's entry
// surviving. Soundness rests on the same determinism contract: a
// snapshot key commits to everything the simulation's future depends on
// (machine configuration, governor + tuning, seed, and the canonical
// bytes of every region executed so far), so restoring it and running
// the suffix is bit-identical to running from scratch.
//
// The tier has its own size budget, separate from the result store's, so
// result pruning can never evict hot snapshots and vice versa. In memory
// the snapshots sit in an internal/lru cache bounded by that byte budget
// alone; it evicts least recently used snapshots first and always keeps
// the newest, even one larger than the budget. The optional disk tier
// stores each snapshot as one of internal/store's checksummed records
// under its own key, found through the store's index. A corrupted or
// truncated record reads as a miss and is dropped from that index — the
// run falls back to the longest intact prefix, or to simulating from
// t=0. Records another process sharing the directory appends become
// visible on the next miss.
package memo

import (
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/store"
)

// DefaultMaxBytes bounds the in-memory snapshot LRU when no budget is
// given. Snapshots of the default 20-core machine run ~4 KiB, so the
// default holds on the order of 10k snapshots.
const DefaultMaxBytes = 64 << 20

// Tier is the snapshot cache: an in-memory byte-budget LRU over an
// optional persistent store. Safe for concurrent use.
type Tier struct {
	mem      *lru.Cache[[]byte]
	maxBytes int64
	disk     *store.Store

	lookups     atomic.Uint64
	hits        atomic.Uint64
	prefixHits  atomic.Uint64
	quantaSaved atomic.Uint64
	stored      atomic.Uint64
}

// New creates a tier with the given in-memory byte budget (0 =
// DefaultMaxBytes) over an optional disk store (nil = memory only). The
// disk store must be dedicated to snapshots — Purge clears it.
func New(maxBytes int64, disk *store.Store) *Tier {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Tier{mem: lru.New[[]byte](0, maxBytes), maxBytes: maxBytes, disk: disk}
}

// Get returns the snapshot stored under key, consulting memory first and
// the disk tier second (promoting disk hits into memory). Corrupt disk
// records read as misses.
func (t *Tier) Get(key string) ([]byte, bool) {
	t.lookups.Add(1)
	body, ok := t.mem.Get(key)
	if !ok && t.disk != nil {
		if body, ok = t.disk.Get(key); ok {
			t.mem.Add(key, body, int64(len(body)))
		}
	}
	if ok {
		t.hits.Add(1)
	}
	return body, ok
}

// Put stores one snapshot in memory and, when configured, writes it
// through to the disk tier as one record. A key that is not a hex
// SHA-256 digest stays in memory only. Disk write failures are absorbed
// — the store counts them, and a missing snapshot only costs
// re-simulation.
func (t *Tier) Put(key string, body []byte) {
	t.mem.Add(key, body, int64(len(body)))
	t.stored.Add(1)
	if t.disk != nil {
		_ = t.disk.Put(key, body) // counted in the store's Info; a lost snapshot costs re-simulation
	}
}

// RecordResume counts one run resumed from a snapshot, skipping the
// given number of simulation quanta.
func (t *Tier) RecordResume(quantaSaved int64) {
	t.prefixHits.Add(1)
	if quantaSaved > 0 {
		t.quantaSaved.Add(uint64(quantaSaved))
	}
}

// Purge drops every snapshot from both tiers.
func (t *Tier) Purge() error {
	t.mem.Purge()
	if t.disk == nil {
		return nil
	}
	return t.disk.Purge()
}

// Info is the tier's operational snapshot for /v1/stats and /v1/cache.
type Info struct {
	Entries     int         `json:"entries"`
	Bytes       int64       `json:"bytes"`
	MaxBytes    int64       `json:"max_bytes"`
	Lookups     uint64      `json:"lookups"`
	Hits        uint64      `json:"hits"`
	PrefixHits  uint64      `json:"prefix_hits"`
	QuantaSaved uint64      `json:"quanta_saved"`
	Stored      uint64      `json:"stored"`
	Evicted     uint64      `json:"evicted"`
	Disk        *store.Info `json:"disk,omitempty"`
}

// Info snapshots the tier's sizes and counters.
func (t *Tier) Info() Info {
	info := Info{
		Entries:     t.mem.Len(),
		Bytes:       t.mem.Bytes(),
		MaxBytes:    t.maxBytes,
		Lookups:     t.lookups.Load(),
		Hits:        t.hits.Load(),
		PrefixHits:  t.prefixHits.Load(),
		QuantaSaved: t.quantaSaved.Load(),
		Stored:      t.stored.Load(),
		Evicted:     t.mem.Evicted(),
	}
	if t.disk != nil {
		di := t.disk.Info()
		info.Disk = &di
	}
	return info
}

// RunStats accumulates one request's memo activity across its
// (concurrently executed) repetitions; the service surfaces it as the
// X-Memo response detail and per-run report annotations.
type RunStats struct {
	mu              sync.Mutex
	runs            int
	prefixHits      int
	quantaSaved     int64
	quantaTotal     int64
	snapshotsStored int
}

// Record adds one simulation's outcome: whether it resumed from a
// snapshot, how many quanta the resume skipped, the run's total quanta,
// and how many snapshots it stored.
func (s *RunStats) Record(resumed bool, saved, total int64, stored int) {
	s.mu.Lock()
	s.runs++
	if resumed {
		s.prefixHits++
		s.quantaSaved += saved
	}
	s.quantaTotal += total
	s.snapshotsStored += stored
	s.mu.Unlock()
}

// View returns a copy of the accumulated counters.
func (s *RunStats) View() RunStatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RunStatsView{
		Runs:            s.runs,
		PrefixHits:      s.prefixHits,
		QuantaSaved:     s.quantaSaved,
		QuantaTotal:     s.quantaTotal,
		SnapshotsStored: s.snapshotsStored,
	}
}

// RunStatsView is one request's memo activity in serializable form.
type RunStatsView struct {
	Runs            int   `json:"runs"`
	PrefixHits      int   `json:"prefix_hits"`
	QuantaSaved     int64 `json:"quanta_saved"`
	QuantaTotal     int64 `json:"quanta_total"`
	SnapshotsStored int   `json:"snapshots_stored"`
}
