package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// key derives a store-compatible 64-hex key from a label.
func key(label string) string {
	h := sha256.Sum256([]byte(label))
	return hex.EncodeToString(h[:])
}

func TestTierPutGetRoundTrip(t *testing.T) {
	tier := New(0, nil)
	body := []byte("snapshot-bytes")
	tier.Put(key("a"), body)
	got, ok := tier.Get(key("a"))
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, body)
	}
	if _, ok := tier.Get(key("absent")); ok {
		t.Fatal("Get on an absent key reported a hit")
	}
	if info := tier.Info(); info.Entries != 1 || info.Bytes != int64(len(body)) {
		t.Errorf("entries/bytes = %d/%d, want 1/%d", info.Entries, info.Bytes, len(body))
	}
}

// TestTierLRUEviction checks the byte budget evicts least-recently-used
// snapshots first and that a Get refreshes recency.
func TestTierLRUEviction(t *testing.T) {
	body := make([]byte, 100)
	tier := New(250, nil) // room for two bodies
	tier.Put(key("a"), body)
	tier.Put(key("b"), body)
	tier.Get(key("a")) // refresh a: b is now the eviction candidate
	tier.Put(key("c"), body)
	if _, ok := tier.Get(key("b")); ok {
		t.Error("least-recently-used snapshot b survived past the byte budget")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := tier.Get(key(k)); !ok {
			t.Errorf("recently used snapshot %s was evicted", k)
		}
	}
	if info := tier.Info(); info.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", info.Evicted)
	}
}

func TestTierDiskPromotionAndPurge(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	body := []byte("persistent-snapshot")
	New(0, open()).Put(key("a"), body)

	// A fresh tier over the same directory serves the snapshot from disk
	// and promotes it into memory.
	warm := New(0, open())
	if got, ok := warm.Get(key("a")); !ok || !bytes.Equal(got, body) {
		t.Fatalf("disk Get = %q, %v; want %q, true", got, ok, body)
	}
	if info := warm.Info(); info.Entries != 1 || info.Disk == nil || info.Disk.Entries != 1 {
		t.Errorf("Info = %+v, Disk = %+v; want the disk hit promoted into memory and 1 record", info, info.Disk)
	}

	if err := warm.Purge(); err != nil {
		t.Fatal(err)
	}
	if n := warm.Info().Entries; n != 0 {
		t.Errorf("purge left %d in-memory snapshots", n)
	}
	if _, ok := warm.Get(key("a")); ok {
		t.Error("purge left the snapshot in the disk index")
	}
	if _, ok := New(0, open()).Get(key("a")); ok {
		t.Error("purge left the snapshot on disk")
	}
}

// TestTierSeesSiblingRecordsOnMiss shares one memo dir between two
// tiers, as two cfserve processes would: every snapshot either writes
// reads back through the other's store, including one written after
// the reader's first probe, and a key nobody wrote misses.
func TestTierSeesSiblingRecordsOnMiss(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	writer, readerDisk := New(0, open()), open()
	reader := New(1, readerDisk) // a one-byte budget: memory keeps only the newest snapshot
	if _, ok := reader.Get(key("late")); ok {
		t.Fatal("a key nobody wrote read as a hit")
	}
	for i := 0; i < 40; i++ {
		writer.Put(key(fmt.Sprint("snap-", i)), []byte(fmt.Sprint("body-", i)))
	}
	writer.Put(key("late"), []byte("late"))
	for i := 0; i < 40; i++ {
		k, want := key(fmt.Sprint("snap-", i)), fmt.Sprint("body-", i)
		if got, ok := reader.Get(k); !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q, true", k[:8], got, ok, want)
		}
	}
	if got, ok := reader.Get(key("late")); !ok || string(got) != "late" {
		t.Errorf("snapshot written after the first miss: Get = %q, %v", got, ok)
	}
	if _, ok := reader.Get(key("absent")); ok {
		t.Error("a key nobody wrote read as a hit")
	}
	if info := readerDisk.Info(); info.Entries != 41 || info.Corrupt != 0 {
		t.Errorf("reader's store = %d records, %d corrupt; want 41 and none", info.Entries, info.Corrupt)
	}
}

// TestTierCorruptDiskSnapshotIsMiss flips the last byte of the memo
// dir's segment, inside the last snapshot's record, and checks that a
// fresh tier reads that snapshot as a miss rather than serving garbage,
// drops it from the store's index, and still serves the intact one: the
// unit of failure is one record.
func TestTierCorruptDiskSnapshotIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	writer := New(0, st)
	writer.Put(key("a"), []byte("intact"))
	writer.Put(key("b"), []byte("soon-to-be-corrupt"))

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("memo dir holds segments %v (%v), want one", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	tier := New(0, st2)
	if _, ok := tier.Get(key("b")); ok {
		t.Error("corrupted disk snapshot was served as a hit")
	}
	if got, ok := tier.Get(key("a")); !ok || string(got) != "intact" {
		t.Errorf("intact snapshot beside a corrupt one: Get = %q, %v", got, ok)
	}
	if info := st2.Info(); info.Entries != 1 || info.Corrupt != 1 {
		t.Errorf("store = %+v, want the corrupt record found once and dropped", info)
	}
}

func TestRunStatsRecordAndView(t *testing.T) {
	var rs RunStats
	rs.Record(false, 0, 100, 3)
	rs.Record(true, 60, 100, 1)
	got := rs.View()
	want := RunStatsView{Runs: 2, PrefixHits: 1, QuantaSaved: 60, QuantaTotal: 200, SnapshotsStored: 4}
	if got != want {
		t.Errorf("View = %+v, want %+v", got, want)
	}
}

// TestTierConcurrentAccess races Put, Get and RecordResume from several
// goroutines, memory-only and over a disk tier whose four-byte budget
// sends most Gets to the store while other goroutines append records.
// Every Get must hit.
func TestTierConcurrentAccess(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, tier := range []*Tier{New(1<<20, nil), New(4, st)} {
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 50; i++ {
					k := key(fmt.Sprintf("%d-%d", g, i))
					tier.Put(k, []byte{byte(g), byte(i)})
					if got, ok := tier.Get(k); !ok || !bytes.Equal(got, []byte{byte(g), byte(i)}) {
						t.Errorf("Get(%d-%d) = %v, %v after Put", g, i, got, ok)
					}
					tier.RecordResume(1)
				}
			}(g)
		}
		for g := 0; g < 4; g++ {
			<-done
		}
		if info := tier.Info(); info.Stored != 200 || info.PrefixHits != 200 {
			t.Errorf("stored/prefixHits = %d/%d, want 200/200", info.Stored, info.PrefixHits)
		}
	}
}
