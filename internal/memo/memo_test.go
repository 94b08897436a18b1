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
	if tier.Len() != 1 || tier.Bytes() != int64(len(body)) {
		t.Errorf("Len/Bytes = %d/%d, want 1/%d", tier.Len(), tier.Bytes(), len(body))
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
	if warm.Len() != 1 {
		t.Errorf("disk hit was not promoted into memory: Len = %d", warm.Len())
	}
	if info := warm.Info(); info.Disk == nil || info.Disk.Entries != 1 {
		t.Errorf("Info.Disk = %+v, want 1 entry", info.Disk)
	}

	if err := warm.Purge(); err != nil {
		t.Fatal(err)
	}
	if warm.Len() != 0 {
		t.Errorf("purge left %d in-memory snapshots", warm.Len())
	}
	if _, ok := warm.Get(key("a")); ok {
		t.Error("purge left the snapshot in the disk index")
	}
	if _, ok := New(0, open()).Get(key("a")); ok {
		t.Error("purge left the snapshot on disk")
	}
}

// TestTierPackIndex reads packs back through a fresh tier's index: every
// key resolves to its own body, including in a pack whose key table is
// longer than the index's first read, and a pack put after the index
// loaded is found without a reload.
func TestTierPackIndex(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	var big []Entry
	for i := 0; i < 100; i++ {
		big = append(big, Entry{Key: key(fmt.Sprint("big-", i)), Body: []byte(fmt.Sprint("body-", i))})
	}
	New(0, open()).PutPack(big)
	New(0, open()).Put(key("one"), []byte("single"))

	disk := open()
	warm := New(1, disk) // a one-byte budget: memory keeps only the newest snapshot
	for _, e := range append(big, Entry{Key: key("one"), Body: []byte("single")}) {
		if got, ok := warm.Get(e.Key); !ok || !bytes.Equal(got, e.Body) {
			t.Fatalf("Get(%s) = %q, %v; want %q, true", e.Key[:8], got, ok, e.Body)
		}
	}
	if _, ok := warm.Get(key("absent")); ok {
		t.Error("a key no pack holds read as a hit")
	}
	if info := disk.Info(); info.Entries != 2 || info.Misses != 0 {
		t.Errorf("disk = %d objects, %d failed reads; want 2 packs and none", info.Entries, info.Misses)
	}

	warm.PutPack([]Entry{{Key: key("late-1"), Body: []byte("late-1")}, {Key: key("late-2"), Body: []byte("late-2")}})
	if got, ok := warm.Get(key("late-1")); !ok || string(got) != "late-1" {
		t.Errorf("pack put after the index loaded: Get = %q, %v", got, ok)
	}
}

// TestTierCorruptDiskSnapshotIsMiss flips the last byte of every store
// file and checks the tier reads them as misses rather than serving
// garbage: a corrupt pack misses all of its snapshots, and the store
// drops it from its index.
func TestTierCorruptDiskSnapshotIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	New(0, st).PutPack([]Entry{
		{Key: key("a"), Body: []byte("soon-to-be-corrupt")},
		{Key: key("b"), Body: []byte("also-corrupt")},
	})

	corrupted := 0
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)-1] ^= 0xff
		corrupted++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no snapshot files found to corrupt")
	}
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	tier := New(0, st2)
	for _, k := range []string{"a", "b"} {
		if _, ok := tier.Get(key(k)); ok {
			t.Errorf("corrupted disk snapshot %s was served as a hit", k)
		}
	}
	if info := st2.Info(); info.Entries != 0 || info.Corrupt != 1 {
		t.Errorf("store = %+v, want the corrupt pack found once and dropped", info)
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
// goroutines, memory-only and over a disk tier whose two-entry budget
// sends most Gets to the pack index while other goroutines write packs
// (and the first probe loads the index). Every Get must hit.
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
