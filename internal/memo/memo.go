// Package memo is the simulator's second cache tier: phase-boundary
// machine snapshots keyed by a prefix-chain hash, so a run whose spec
// shares a workload prefix with an earlier run can Restore() the last
// common boundary and simulate only the divergent suffix.
//
// The result cache (internal/service + internal/store) only pays off on
// byte-identical specs; this tier pays off on *structurally related*
// ones — the same scenario re-run with a changed final phase, extended
// iterations, or simply re-executed without the result cache's entry
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
// holds one pack per PutPack (one per executed run): a key table followed
// by the snapshots, appended as one of internal/store's checksummed
// records. Disk probes are answered from an in-memory index of raw
// 32-byte keys to packs, built once, on the first probe, from the key
// tables alone, so a cold probe touches no file. A corrupted or truncated
// pack verifies false on Get, reads as a miss for all of its snapshots,
// and is dropped from the store's index — the run falls back to
// simulating from t=0.
package memo

import (
	"bytes"
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

	// The disk index, loaded on the first disk probe. packs names each
	// pack once, by ordinal; packOf maps every indexed snapshot key to
	// its pack's ordinal.
	idxMu   sync.Mutex
	indexed bool
	packs   []string
	packOf  map[packKey]uint32
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
// packs read as misses.
func (t *Tier) Get(key string) ([]byte, bool) {
	t.lookups.Add(1)
	body, ok := t.mem.Get(key)
	if !ok && t.disk != nil {
		if body, ok = t.diskGet(key); ok {
			t.mem.Add(key, body, int64(len(body)))
		}
	}
	if ok {
		t.hits.Add(1)
	}
	return body, ok
}

// diskGet reads key's snapshot from the pack the index names, verifying
// the whole pack first. A pack that fails to verify is dropped by the
// store, so its snapshots miss until a re-execution writes them again.
func (t *Tier) diskGet(key string) ([]byte, bool) {
	k, ok := rawKey(key)
	if !ok {
		return nil, false
	}
	t.idxMu.Lock()
	t.loadIndexLocked()
	ord, ok := t.packOf[k]
	var name string
	if ok {
		name = t.packs[ord]
	}
	t.idxMu.Unlock()
	if !ok {
		return nil, false
	}
	raw, ok := t.disk.Get(name)
	if !ok {
		return nil, false
	}
	keys, bodies, err := decodePack(raw)
	if err != nil {
		return nil, false
	}
	for i := range keys {
		if keys[i] == k {
			// A copy, so the LRU does not pin the whole pack.
			return bytes.Clone(bodies[i]), true
		}
	}
	return nil, false
}

// loadIndexLocked builds the disk index on first use from the key table
// at the head of every store record. Records that are not packs are left
// out, so their keys read as misses. Packs written later by another
// process sharing the directory stay invisible until a restart.
func (t *Tier) loadIndexLocked() {
	if t.indexed {
		return
	}
	t.indexed = true
	t.packOf = make(map[packKey]uint32)
	for _, name := range t.disk.Keys() {
		if keys, ok := t.readKeys(name); ok {
			t.addPackLocked(name, keys)
		}
	}
}

// readKeys reads the key table of the pack stored under name: one
// bounded read, and a second when the table is longer than the first.
func (t *Tier) readKeys(name string) ([]packKey, bool) {
	head, ok := t.disk.Head(name, packHeadGuess)
	if !ok {
		return nil, false
	}
	keys, _, size, err := parseTable(head)
	if err == errShortTable {
		if head, ok = t.disk.Head(name, size); !ok {
			return nil, false
		}
		keys, _, _, err = parseTable(head)
	}
	return keys, err == nil
}

// addPackLocked indexes one pack's keys under a new ordinal.
func (t *Tier) addPackLocked(name string, keys []packKey) {
	ord := uint32(len(t.packs))
	t.packs = append(t.packs, name)
	for _, k := range keys {
		t.packOf[k] = ord
	}
}

// Put stores one snapshot: PutPack of a single entry.
func (t *Tier) Put(key string, body []byte) {
	t.PutPack([]Entry{{Key: key, Body: body}})
}

// PutPack stores snapshots in memory and, when configured, writes them
// through to the disk tier as one pack. Keys that are not hex SHA-256
// digests stay in memory only. Disk write failures are absorbed — the
// store counts them, and a missing snapshot only costs re-simulation.
func (t *Tier) PutPack(entries []Entry) {
	for _, e := range entries {
		t.mem.Add(e.Key, e.Body, int64(len(e.Body)))
	}
	t.stored.Add(uint64(len(entries)))
	if t.disk == nil {
		return
	}
	keys := make([]packKey, 0, len(entries))
	bodies := make([][]byte, 0, len(entries))
	for _, e := range entries {
		if k, ok := rawKey(e.Key); ok {
			keys = append(keys, k)
			bodies = append(bodies, e.Body)
		}
	}
	if len(keys) == 0 {
		return
	}
	name, pack := encodePack(keys, bodies)
	if t.disk.Put(name, pack) != nil {
		return
	}
	t.idxMu.Lock()
	if t.indexed {
		t.addPackLocked(name, keys)
	}
	t.idxMu.Unlock()
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
	err := t.disk.Purge()
	t.idxMu.Lock()
	t.indexed, t.packs, t.packOf = false, nil, nil
	t.idxMu.Unlock()
	return err
}

// Len returns the number of in-memory snapshots.
func (t *Tier) Len() int { return t.mem.Len() }

// Bytes returns the in-memory snapshot payload size.
func (t *Tier) Bytes() int64 { return t.mem.Bytes() }

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
