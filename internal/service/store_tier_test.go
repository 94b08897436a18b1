package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreTierSurvivesRestart is the warm-cache contract: a second
// service lifetime over the same directory serves a previously executed
// spec from disk — byte-identically and without re-executing.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	exec1 := &stubExecutor{}
	s1 := newTestService(t, Config{Workers: 1, Executor: exec1.exec, Store: openTestStore(t, dir)})
	r1, err := s1.Submit(context.Background(), testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != OutcomeMiss {
		t.Fatalf("cold outcome = %s, want miss", r1.Outcome)
	}

	// "Restart": a fresh service, fresh LRU, same directory.
	exec2 := &stubExecutor{}
	s2 := newTestService(t, Config{Workers: 1, Executor: exec2.exec, Store: openTestStore(t, dir)})
	r2, err := s2.Submit(context.Background(), testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Outcome != OutcomeDisk {
		t.Errorf("warm outcome = %s, want disk", r2.Outcome)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("disk-served body differs from the original execution")
	}
	if n := exec2.calls.Load(); n != 0 {
		t.Errorf("restarted service executed %d times, want 0", n)
	}
	// The disk hit promotes into the LRU: next submission is a memory hit.
	r3, err := s2.Submit(context.Background(), testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Outcome != OutcomeHit {
		t.Errorf("post-promotion outcome = %s, want hit", r3.Outcome)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = disk %d / hit %d / miss %d, want 1/1/0", st.DiskHits, st.Hits, st.Misses)
	}
}

// TestStoreCorruptionReExecutesAndRewrites: a truncated or garbled
// record reads as a miss, the spec re-executes, and the rewritten entry
// is byte-identical to the original — the satellite contract.
func TestStoreCorruptionReExecutesAndRewrites(t *testing.T) {
	dir := t.TempDir()
	exec := &stubExecutor{}
	s1 := newTestService(t, Config{Workers: 1, Executor: exec.exec, Store: openTestStore(t, dir)})
	r1, err := s1.Submit(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the run's record inside its segment, behind the store's
	// back.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want the one the run appended to", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh lifetime (cold LRU) over the corrupted store.
	s2 := newTestService(t, Config{Workers: 1, Executor: exec.exec, Store: openTestStore(t, dir)})
	r2, err := s2.Submit(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Outcome != OutcomeMiss {
		t.Errorf("outcome over corrupt store = %s, want miss (re-execution)", r2.Outcome)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("re-executed body differs from the original")
	}
	// The write-through must have appended a good record on disk.
	s3 := newTestService(t, Config{Workers: 1, Executor: exec.exec, Store: openTestStore(t, dir)})
	r3, err := s3.Submit(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Outcome != OutcomeDisk || !bytes.Equal(r3.Body, r1.Body) {
		t.Errorf("repaired read = %s, byte-identical %v; want disk hit of original bytes", r3.Outcome, bytes.Equal(r3.Body, r1.Body))
	}
}

// TestTwoServicesSharingOneStore models two cfserve backends over a
// shared directory racing the same spec set under -race: whatever the
// interleaving, both serve byte-identical bodies and the store converges
// to one entry per spec.
func TestTwoServicesSharingOneStore(t *testing.T) {
	dir := t.TempDir()
	execA, execB := &stubExecutor{}, &stubExecutor{}
	a := newTestService(t, Config{Workers: 2, QueueDepth: 64, Executor: execA.exec, Store: openTestStore(t, dir)})
	b := newTestService(t, Config{Workers: 2, QueueDepth: 64, Executor: execB.exec, Store: openTestStore(t, dir)})

	const specs = 6
	bodies := make([][2][]byte, specs)
	var wg sync.WaitGroup
	for i := 0; i < specs; i++ {
		for side, svc := range []*Service{a, b} {
			wg.Add(1)
			go func(i, side int, svc *Service) {
				defer wg.Done()
				res, err := svc.Submit(context.Background(), testSpec(int64(i+1)))
				if err != nil {
					t.Error(err)
					return
				}
				bodies[i][side] = res.Body
			}(i, side, svc)
		}
	}
	wg.Wait()
	for i, pair := range bodies {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("spec %d: backends served different bytes", i)
		}
	}
	if got := openTestStore(t, dir).Len(); got != specs {
		t.Errorf("store entries = %d, want %d", got, specs)
	}
}

// TestPurgeCacheEmptiesBothTiers: DELETE /v1/cache semantics — after a
// purge the same spec is a fresh execution.
func TestPurgeCacheEmptiesBothTiers(t *testing.T) {
	dir := t.TempDir()
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 1, Executor: exec.exec, Store: openTestStore(t, dir)})
	if _, err := s.Submit(context.Background(), testSpec(1)); err != nil {
		t.Fatal(err)
	}
	info := s.CacheInfo()
	if info.Entries != 1 || info.Bytes == 0 || info.Store == nil || info.Store.Entries != 1 {
		t.Fatalf("pre-purge CacheInfo = %+v, want one entry in both tiers", info)
	}
	if err := s.PurgeCache(); err != nil {
		t.Fatal(err)
	}
	info = s.CacheInfo()
	if info.Entries != 0 || info.Bytes != 0 || info.Store.Entries != 0 || info.Store.Bytes != 0 {
		t.Fatalf("post-purge CacheInfo = %+v, want empty tiers", info)
	}
	res, err := s.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeMiss || exec.calls.Load() != 2 {
		t.Errorf("post-purge outcome = %s after %d calls, want a fresh miss", res.Outcome, exec.calls.Load())
	}
}
