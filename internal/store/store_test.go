package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// hashFor makes a valid-looking content address from a short label.
func hashFor(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hashFor("a")
	body := []byte(`{"experiment":"run"}` + "\n")
	if err := s.Put(h, body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want stored body", got, ok)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Errorf("Len/Bytes = %d/%d, want 1/%d", s.Len(), s.Bytes(), len(body))
	}
}

func TestReopenScansExistingObjects(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for i := 0; i < 5; i++ {
		h := hashFor(fmt.Sprint(i))
		bodies[h] = []byte(fmt.Sprintf("body-%d", i))
		if err := s.Put(h, bodies[h]); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process opens the same directory: the startup scan must
	// index every object and every payload must read back verbatim.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	for h, want := range bodies {
		got, ok := s2.Get(h)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("reopened Get(%s) = %q, %v; want %q", h[:8], got, ok, want)
		}
	}
}

// corruptions are object defects a reader must treat as misses.
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
// a truncated or garbled object is a miss — never served — and the bad
// file is removed so a re-execution rewrites the slot cleanly.
func TestCorruptFilesReadAsMisses(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			h := hashFor(tc.name)
			body := []byte("payload-" + tc.name)
			if err := s.Put(h, body); err != nil {
				t.Fatal(err)
			}
			path := s.path(h)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(h); ok {
				t.Fatalf("corrupt object served as %q, want miss", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt file should have been deleted, stat err = %v", err)
			}
			// Re-execution path: rewriting the slot restores byte-identical reads.
			if err := s.Put(h, body); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(h)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("rewritten Get = %q, %v; want original payload", got, ok)
			}
			if info := s.Info(); info.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", info.Corrupt)
			}
		})
	}
}

// TestParallelWritersSameHash races many writers of one content address
// (the cross-backend scenario: two cfserve processes finishing the same
// spec). Run under -race; afterwards the object must read back intact.
func TestParallelWritersSameHash(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
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
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("final Get = %q, %v; want body", got, ok)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Errorf("Len/Bytes = %d/%d, want a single entry", s.Len(), s.Bytes())
	}
	// No temp droppings left behind by the racing writers.
	err = filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !hashPattern.MatchString(d.Name()) {
			t.Errorf("stray file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelDistinctWriters races writers of distinct hashes to shake
// out index bookkeeping races under -race.
func TestParallelDistinctWriters(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
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

func TestPruneEvictsOldestFirst(t *testing.T) {
	s, err := Open(t.TempDir(), 64) // fits exactly four 16-byte payloads
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 16)
	var hashes []string
	for i := 0; i < 6; i++ {
		h := hashFor(fmt.Sprint(i))
		hashes = append(hashes, h)
		if err := s.Put(h, body); err != nil {
			t.Fatal(err)
		}
		// mtime granularity on some filesystems is coarse; force ordering.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.path(h), past, past)
		s.mu.Lock()
		obj := s.index[h]
		obj.mtime = past
		s.index[h] = obj
		s.mu.Unlock()
	}
	if s.Bytes() > 64 {
		t.Fatalf("Bytes = %d, want ≤ 64 after pruning", s.Bytes())
	}
	if _, ok := s.Get(hashes[0]); ok {
		t.Error("oldest entry survived pruning")
	}
	if _, ok := s.Get(hashes[5]); !ok {
		t.Error("newest entry must survive pruning")
	}
}

// TestOpenPrunesExistingDataPastBound: the size bound applies to what
// the startup scan finds, not only to future Puts — a read-only
// workload must not keep a shrunken store over budget forever.
func TestOpenPrunesExistingDataPastBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 16)
	for i := 0; i < 6; i++ {
		if err := s.Put(hashFor(fmt.Sprint(i)), body); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := Open(dir, 40) // fits two 16-byte payloads
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Bytes() > 40 || reopened.Len() > 2 {
		t.Errorf("reopened Len/Bytes = %d/%d, want pruned to the 40-byte bound", reopened.Len(), reopened.Bytes())
	}
}

func TestPurgeEmptiesButStaysUsable(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
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
	if got, _ := s.Get(h); string(got) != "body2" {
		t.Errorf("post-purge Get = %q", got)
	}
}

func TestRejectsNonHashKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../etc/passwd", hashFor("x")[:63] + "Z"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a non-hash key", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) returned data for a non-hash key", bad)
		}
	}
}

// TestKeysAndHead pins the two reads an index over the store is built
// from: Keys lists every object in sorted order, and Head returns a
// bounded payload prefix without verifying it (a Get still does).
func TestKeysAndHead(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := hashFor("a"), hashFor("b")
	for _, h := range []string{a, b} {
		if err := s.Put(h, []byte("payload-"+h[:4])); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{a, b}
	sort.Strings(want)
	if got := s.Keys(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Keys = %v, want %v", got, want)
	}
	for n, want := range map[int]string{0: "", 3: "pay", 100: "payload-" + a[:4]} {
		if got, ok := s.Head(a, n); !ok || string(got) != want {
			t.Errorf("Head(a, %d) = %q, %v; want %q, true", n, got, ok, want)
		}
	}
	if _, ok := s.Head(hashFor("absent"), 8); ok {
		t.Error("Head of a missing object reported ok")
	}

	path := s.path(a)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Head(a, 3); !ok || string(got) != "pay" {
		t.Errorf("Head of a corrupt payload = %q, %v; want the unverified prefix", got, ok)
	}
	if _, ok := s.Get(a); ok {
		t.Error("Get served the corrupt payload Head peeked at")
	}
	if info := s.Info(); info.Hits != 0 || info.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want Head to count nothing and Get one miss", info.Hits, info.Misses)
	}
}

// FuzzVerify feeds arbitrary bytes to the object reader as the contents
// of a stored file: corruption is a miss, never a panic or served data.
// A verified object re-encodes to its own bytes, Get agrees with verify,
// and Head returns the payload prefix of any well-formed header. Seeds:
// a real result object (testdata/fuzz/FuzzVerify) and the corruptions.
func FuzzVerify(f *testing.F) {
	body := []byte(`{"experiment":"run"}` + "\n")
	good := append(header(body), body...)
	f.Add(good)
	for _, c := range corruptions {
		f.Add(c.corrupt(good))
	}
	s, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	h := hashFor("fuzzed")
	if err := os.MkdirAll(filepath.Dir(s.path(h)), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, ok := verify(raw)
		if ok && !bytes.Equal(append(header(body), body...), raw) {
			t.Fatal("a verified object does not re-encode to its own bytes")
		}
		if !ok && body != nil {
			t.Fatal("a rejected object returned a payload")
		}
		if err := os.WriteFile(s.path(h), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		const n = 16
		head, hok := s.Head(h, n)
		if hok != validHeader(raw) {
			t.Fatalf("Head ok = %v for a header that validHeader calls %v", hok, !hok)
		}
		if hok && !bytes.Equal(head, raw[headerLen:min(len(raw), headerLen+n)]) {
			t.Fatalf("Head = %q, want the first %d payload bytes", head, n)
		}
		got, gok := s.Get(h)
		if gok != ok || !bytes.Equal(got, body) {
			t.Fatalf("Get = %q, %v; verify says %q, %v", got, gok, body, ok)
		}
	})
}
