package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// hashFor makes a valid-looking content address from a short label.
func hashFor(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// openStore opens dir and closes the store when the test ends.
func openStore(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// record encodes one complete record: its header followed by body.
func record(key string, seq uint64, body []byte) []byte {
	return append(encodeHeader(nil, key, seq, body), body...)
}

// recordAt returns the segment file holding hash's indexed record and
// the record's extent in it.
func recordAt(t *testing.T, s *Store, hash string) (path string, off, end int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[hash]
	if !ok {
		t.Fatalf("%s is not indexed", hash[:8])
	}
	return filepath.Join(s.dir, l.seg.name), l.off, l.off + int64(headerLen) + l.size
}

// segments lists the segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if segPattern.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names
}

// mustGet requires hash to read back as want.
func mustGet(t *testing.T, s *Store, hash string, want []byte) {
	t.Helper()
	if got, ok := s.Get(hash); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %q, %v; want %q", hash[:8], got, ok, want)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	h := hashFor("a")
	body := []byte(`{"experiment":"run"}` + "\n")
	if err := s.Put(h, body); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, h, body)
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Errorf("Len/Bytes = %d/%d, want 1/%d", s.Len(), s.Bytes(), len(body))
	}
}

func TestReopenScansExistingObjects(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	bodies := map[string][]byte{}
	for i := 0; i < 5; i++ {
		h := hashFor(fmt.Sprint(i))
		bodies[h] = []byte(fmt.Sprintf("body-%d", i))
		if err := s.Put(h, bodies[h]); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process opens the same directory: the startup scan must
	// index every record and every payload must read back verbatim.
	s2 := openStore(t, dir, 0)
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	for h, want := range bodies {
		mustGet(t, s2, h, want)
	}
}

// corruptions are record defects a reader must treat as misses. Each
// maps a record's bytes to what is left of them.
var corruptions = []struct {
	name    string
	corrupt func(raw []byte) []byte
}{
	{"truncated header", func(raw []byte) []byte { return raw[:headerLen/2] }},
	{"truncated payload", func(raw []byte) []byte { return raw[:len(raw)-3] }},
	{"garbage", func([]byte) []byte { return []byte("not a store object at all") }},
	{"flipped payload byte", func(raw []byte) []byte {
		mut := append([]byte(nil), raw...)
		mut[len(mut)-1] ^= 0xFF
		return mut
	}},
	{"empty file", func([]byte) []byte { return nil }},
}

// TestCorruptFilesReadAsMisses covers the corruption-tolerance contract:
// a truncated or garbled record is a miss, counted once and never
// served, and the rewrite a re-execution appends wins, also on reopen.
func TestCorruptFilesReadAsMisses(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, 0)
			h := hashFor(tc.name)
			body := []byte("payload-" + tc.name)
			if err := s.Put(h, body); err != nil {
				t.Fatal(err)
			}
			path, off, end := recordAt(t, s, h)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(raw[:off:off], tc.corrupt(raw[off:end])...), 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if got, ok := s.Get(h); ok {
					t.Fatalf("corrupt record served as %q, want miss", got)
				}
			}
			// Re-execution path: rewriting the slot restores byte-identical reads.
			if err := s.Put(h, body); err != nil {
				t.Fatal(err)
			}
			mustGet(t, s, h, body)
			if info := s.Info(); info.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", info.Corrupt)
			}
			reopened := openStore(t, dir, 0)
			mustGet(t, reopened, h, body)
			if info := reopened.Info(); info.Corrupt != 0 {
				t.Errorf("reopened store read %d corrupt records, want the rewrite", info.Corrupt)
			}
		})
	}
}

// TestCorruptPayloadCountedAndRewritten: a record whose payload fails
// its checksum is counted once and never served again; a sibling's
// rewrite into its own segment supersedes it for every later reader,
// whatever the two segments' names.
func TestCorruptPayloadCountedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	writer := openStore(t, dir, 0)
	h, body := hashFor("c"), []byte("canonical report bytes")
	if err := writer.Put(h, body); err != nil {
		t.Fatal(err)
	}
	path, _, end := recordAt(t, writer, h)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[end-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sibling := openStore(t, dir, 0)
	for i := 0; i < 2; i++ {
		if _, ok := sibling.Get(h); ok {
			t.Fatal("corrupt payload served")
		}
	}
	if info := sibling.Info(); info.Corrupt != 1 || info.Misses != 2 {
		t.Errorf("corrupt/misses = %d/%d, want the bad record counted once", info.Corrupt, info.Misses)
	}
	if err := sibling.Put(h, body); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("%d segments, want the writer's and the sibling's", n)
	}
	mustGet(t, openStore(t, dir, 0), h, body)
}

// TestTornTailServesEarlierRecords: a writer that died mid-append leaves
// a torn record. Records before it are still served, the torn one
// misses, and the next writer to take over the segment cuts the tail
// off, so its rewrite wins after reopen.
func TestTornTailServesEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	a, b := hashFor("a"), hashFor("b")
	bodyA, bodyB := []byte("alpha payload"), []byte("bravo payload")
	if err := s.Put(a, bodyA); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, bodyB); err != nil {
		t.Fatal(err)
	}
	path, off, end := recordAt(t, s, b)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, off+(end-off)/2); err != nil {
		t.Fatal(err)
	}

	next := openStore(t, dir, 0)
	mustGet(t, next, a, bodyA)
	if _, ok := next.Get(b); ok {
		t.Fatal("torn record served")
	}
	if err := next.Put(b, bodyB); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("segments %v, want the torn one taken over", segs)
	}
	reopened := openStore(t, dir, 0)
	mustGet(t, reopened, a, bodyA)
	mustGet(t, reopened, b, bodyB)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*headerLen + len(bodyA) + len(bodyB)); fi.Size() != want {
		t.Errorf("segment holds %d bytes, want %d: the torn tail was not cut", fi.Size(), want)
	}
}

// TestSiblingSeesAppendsWithoutReopen: a Store finds what another Store
// over the same directory appended — to a segment it knows, or to one
// created after it opened — on its next miss, without reopening.
func TestSiblingSeesAppendsWithoutReopen(t *testing.T) {
	dir := t.TempDir()
	a, reader := openStore(t, dir, 0), openStore(t, dir, 0)
	h1, h2 := hashFor("one"), hashFor("two")
	if err := a.Put(h1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, reader, h1, []byte("first"))

	late := openStore(t, dir, 0)
	if err := late.Put(h2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, reader, h2, []byte("second"))
	if n := len(segments(t, dir)); n != 2 {
		t.Errorf("%d segments, want one per live writer", n)
	}
	if reader.Len() != 2 {
		t.Errorf("reader Len = %d, want 2", reader.Len())
	}
}

// TestParallelWritersSameHash races many writers of one content address
// (the cross-backend scenario: two cfserve processes finishing the same
// spec). Run under -race; afterwards the record must read back intact.
func TestParallelWritersSameHash(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	h := hashFor("contended")
	body := []byte("the one true canonical payload")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if err := s.Put(h, body); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(h); ok && !bytes.Equal(got, body) {
					t.Errorf("raced Get = %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	mustGet(t, s, h, body)
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Errorf("Len/Bytes = %d/%d, want a single entry", s.Len(), s.Bytes())
	}
	// Nothing but the one segment left behind by the racing writers.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !segPattern.MatchString(ents[0].Name()) {
		t.Errorf("directory holds %d entries (%v), want one segment", len(ents), ents)
	}
}

// TestParallelDistinctWriters races writers of distinct hashes to shake
// out index bookkeeping races under -race.
func TestParallelDistinctWriters(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h := hashFor(fmt.Sprintf("w%d-%d", i, j))
				if err := s.Put(h, []byte(h)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8*20 {
		t.Errorf("Len = %d, want %d", s.Len(), 8*20)
	}
}

// TestPruneEvictsOldestFirst: a bounded store rotates its segment at a
// quarter of the bound and evicts whole segments, the one written
// longest ago first, never the one it appends to.
func TestPruneEvictsOldestFirst(t *testing.T) {
	s := openStore(t, t.TempDir(), 64) // fits exactly four 16-byte payloads
	body := bytes.Repeat([]byte("x"), 16)
	var hashes []string
	for i := 0; i < 6; i++ {
		h := hashFor(fmt.Sprint(i))
		hashes = append(hashes, h)
		if err := s.Put(h, body); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() > 64 {
		t.Fatalf("Bytes = %d, want ≤ 64 after pruning", s.Bytes())
	}
	for i, h := range hashes {
		if _, ok := s.Get(h); ok != (i >= 2) {
			t.Errorf("entry %d present = %v, want only the newest four", i, ok)
		}
	}
	if info := s.Info(); info.Evicted != 2 {
		t.Errorf("evicted = %d, want 2", info.Evicted)
	}
	// The active segment survives even when its one entry alone exceeds
	// the bound: evicting what was just written would make Put a no-op.
	big := hashFor("big")
	if err := s.Put(big, bytes.Repeat([]byte("y"), 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(big); !ok || s.Len() != 1 {
		t.Errorf("after an oversized Put: present %v, Len %d; want only it", ok, s.Len())
	}
	if n := len(segments(t, s.Dir())); n != 1 {
		t.Errorf("%d segments left, want the active one", n)
	}
}

// TestOpenPrunesExistingDataPastBound: the size bound applies to what
// the startup scan finds, not only to future Puts — a read-only
// workload must not keep a shrunken store over budget forever.
func TestOpenPrunesExistingDataPastBound(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	body := bytes.Repeat([]byte("x"), 16)
	for i := 0; i < 6; i++ {
		if err := s.Put(hashFor(fmt.Sprint(i)), body); err != nil {
			t.Fatal(err)
		}
	}
	reopened := openStore(t, dir, 40) // fits two 16-byte payloads
	if reopened.Bytes() > 40 || reopened.Len() > 2 {
		t.Errorf("reopened Len/Bytes = %d/%d, want pruned to the 40-byte bound", reopened.Len(), reopened.Bytes())
	}
}

func TestPurgeEmptiesButStaysUsable(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	h := hashFor("p")
	if err := s.Put(h, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("after purge Len/Bytes = %d/%d, want 0/0", s.Len(), s.Bytes())
	}
	if _, ok := s.Get(h); ok {
		t.Error("purged entry still readable")
	}
	if err := s.Put(h, []byte("body2")); err != nil {
		t.Fatalf("store unusable after purge: %v", err)
	}
	mustGet(t, s, h, []byte("body2"))
}

// TestPurgeBySiblingIsSeen: after one Store purges the shared directory,
// a sibling misses what it had indexed, including the records in the
// segment it appends to, and its next write lands in a new segment that
// every Store sees.
func TestPurgeBySiblingIsSeen(t *testing.T) {
	dir := t.TempDir()
	a, b := openStore(t, dir, 0), openStore(t, dir, 0)
	h0, h1, h2 := hashFor("0"), hashFor("1"), hashFor("2")
	if err := a.Put(h0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(h1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, b, h0, []byte("zero"))
	if err := a.Purge(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{h0, h1} {
		if _, ok := b.Get(h); ok {
			t.Errorf("sibling served %s after the purge", h[:8])
		}
	}
	if info := b.Info(); info.Corrupt != 0 || info.Entries != 0 {
		t.Errorf("sibling after purge: %d corrupt, %d entries; want plain misses and an empty index", info.Corrupt, info.Entries)
	}
	if err := b.Put(h2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, a, h2, []byte("two"))
	fresh := openStore(t, dir, 0)
	if n := fresh.Len(); n != 1 {
		t.Errorf("after purge and one write: %d keys, want only the new one", n)
	}
	mustGet(t, fresh, h2, []byte("two"))
}

// TestCloseReleasesDescriptors: Close gives back every descriptor and the
// segment lock, so a store reopened many times keeps one segment and
// holds no more descriptors than it did before.
func TestCloseReleasesDescriptors(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	cycle := func(i int) {
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := hashFor(fmt.Sprint(i))
		if err := s.Put(h, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		mustGet(t, s, h, []byte("payload"))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(h); ok {
			t.Error("a closed store served a read")
		}
		if err := s.Put(h, []byte("payload")); err == nil {
			t.Error("a closed store accepted a write")
		}
	}
	cycle(0) // the runtime's own lazily opened descriptors settle here
	before := fds()
	for i := 1; i <= 8; i++ {
		cycle(i)
	}
	if after := fds(); after != before {
		t.Errorf("%d descriptors open after 8 open/put/close cycles, %d before", after, before)
	}
	if segs := segments(t, dir); len(segs) != 1 {
		t.Errorf("segments %v after 9 lifetimes, want each writer to take over the last one's", segs)
	}
	if n := openStore(t, dir, 0).Len(); n != 9 {
		t.Errorf("Len = %d, want 9", n)
	}
}

// TestOldLayoutReadsAsEmpty: a directory in the one-file-per-object
// layout reads as empty; a write goes to a segment and leaves the old
// file untouched.
func TestOldLayoutReadsAsEmpty(t *testing.T) {
	dir := t.TempDir()
	h, body := hashFor("old"), []byte("report")
	sum := sha256.Sum256(body)
	old := filepath.Join(dir, h[:2], h)
	oldBytes := []byte("cfstore1 " + hex.EncodeToString(sum[:]) + "\n" + string(body))
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, 0)
	if _, ok := s.Get(h); ok || s.Len() != 0 {
		t.Fatalf("old layout: hit %v, Len %d; want an empty store", ok, s.Len())
	}
	if err := s.Put(h, body); err != nil {
		t.Fatal(err)
	}
	mustGet(t, openStore(t, dir, 0), h, body)
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, oldBytes) {
		t.Errorf("old file changed: %q, %v", got, err)
	}
}

func TestRejectsNonHashKeys(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	for _, bad := range []string{"", "short", "../../etc/passwd", hashFor("x")[:63] + "Z"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a non-hash key", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) returned data for a non-hash key", bad)
		}
	}
}

// FuzzVerify feeds arbitrary bytes to the segment decoder as the
// contents of a segment file: Open never panics, every key it indexes
// agrees with its record header, and Get either serves a
// payload that matches the header's checksum — a record that re-encodes
// to its own bytes — or misses and counts the record corrupt. Seeds: a
// segment holding a real result record (testdata/fuzz/FuzzVerify), the
// corruptions applied to a record, a key rewritten later in the segment
// and a record followed by a torn one.
func FuzzVerify(f *testing.F) {
	key := hashFor("fuzzed")
	good := record(key, 1, []byte(`{"experiment":"run"}`+"\n"))
	f.Add(good)
	for _, c := range corruptions {
		f.Add(c.corrupt(good))
	}
	f.Add(append(record(key, 2, []byte("rewritten")), good...))
	f.Add(append(good[:len(good):len(good)], good[:headerLen+3]...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000000.log"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, 0)
		s.mu.Lock()
		index := maps.Clone(s.index)
		s.mu.Unlock()
		for k, l := range index {
			rec := raw[l.off : l.off+int64(headerLen)+l.size]
			h, ok := parseHeader(rec)
			if !ok || string(h.key) != k || h.seq != l.seq || int64(h.size) != l.size {
				t.Fatalf("index entry %+v disagrees with its record header", l)
			}
			corrupt := s.Info().Corrupt
			got, ok := s.Get(k)
			switch {
			case ok && (sha256.Sum256(got) != h.sum || !bytes.Equal(record(k, h.seq, got), rec)):
				t.Fatal("Get served a payload that does not re-encode to its record")
			case !ok && s.Info().Corrupt != corrupt+1:
				t.Fatal("Get missed an indexed record without counting it corrupt")
			}
		}
	})
}
