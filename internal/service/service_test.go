package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// stubExecutor returns a canned report and counts executions; an optional
// gate blocks every execution until released, so tests can hold work
// in-flight deterministically.
type stubExecutor struct {
	calls atomic.Int64
	gate  chan struct{} // nil = never block
}

func (e *stubExecutor) exec(opt experiments.Options) (*report.RunReport, error) {
	e.calls.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	r := report.New("run", "benchmark", "seed")
	r.AddRow(opt.Benchmark, opt.Seed)
	return r, nil
}

func testSpec(seed int64) RunSpec {
	return RunSpec{Benchmark: "UTS", Seed: seed, Scale: 0.01, Reps: 1}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestSubmitMissThenHit(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 2, Executor: exec.exec})
	r1, err := s.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != OutcomeMiss {
		t.Errorf("first outcome = %s, want miss", r1.Outcome)
	}
	r2, err := s.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Outcome != OutcomeHit {
		t.Errorf("second outcome = %s, want hit", r2.Outcome)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("hit body differs from miss body")
	}
	if r1.Hash != r2.Hash {
		t.Errorf("hashes differ: %s vs %s", r1.Hash, r2.Hash)
	}
	if got := exec.calls.Load(); got != 1 {
		t.Errorf("executor ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestCoalescingConcurrentIdenticalRequests launches many identical
// submissions while the single execution is held in-flight: exactly one
// run must happen, every waiter must get the same bytes, and the rest
// must be accounted as coalesced. Run with -race, this also exercises the
// admission path's locking.
func TestCoalescingConcurrentIdenticalRequests(t *testing.T) {
	const waiters = 16
	exec := &stubExecutor{gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 2, QueueDepth: 4, Executor: exec.exec})

	var wg sync.WaitGroup
	results := make([]Result, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), testSpec(1))
		}(i)
	}
	// Wait until the one real execution is on a worker and every other
	// submission has coalesced onto it.
	deadline := time.After(5 * time.Second)
	for {
		st := s.Stats()
		if st.Misses == 1 && st.Coalesced == waiters-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never coalesced: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(exec.gate)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Body, results[0].Body) {
			t.Errorf("waiter %d got different bytes", i)
		}
	}
	if got := exec.calls.Load(); got != 1 {
		t.Errorf("executor ran %d times for %d identical requests, want 1", got, waiters)
	}
	outcomes := map[Outcome]int{}
	for _, r := range results {
		outcomes[r.Outcome]++
	}
	if outcomes[OutcomeMiss] != 1 || outcomes[OutcomeCoalesced] != waiters-1 {
		t.Errorf("outcomes = %v, want 1 miss + %d coalesced", outcomes, waiters-1)
	}
}

// TestQueueFullRejection fills the single worker and the single queue
// slot with held executions, then checks the next distinct spec is
// rejected with ErrQueueFull — and that the rejection clears once
// capacity frees up.
func TestQueueFullRejection(t *testing.T) {
	exec := &stubExecutor{gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, Executor: exec.exec})

	bg := context.Background()
	done1 := make(chan error, 1)
	go func() {
		_, err := s.Submit(bg, testSpec(1))
		done1 <- err
	}()
	// Wait for the worker to pick spec 1 up, so spec 2 occupies the one
	// queue slot rather than racing for the worker.
	waitFor(t, func() bool { return exec.calls.Load() == 1 })
	done2 := make(chan error, 1)
	go func() {
		_, err := s.Submit(bg, testSpec(2))
		done2 <- err
	}()
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	if _, err := s.Submit(bg, testSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third spec: err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	close(exec.gate)
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	// Capacity is back: the previously rejected spec now runs.
	if _, err := s.Submit(bg, testSpec(3)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitAsyncLifecycle(t *testing.T) {
	exec := &stubExecutor{gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, Executor: exec.exec})

	jv, err := s.SubmitAsyncUnder(testSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if jv.Status != JobQueued && jv.Status != JobRunning {
		t.Errorf("fresh job status = %s", jv.Status)
	}
	waitFor(t, func() bool {
		v, err := s.Job(jv.ID)
		return err == nil && v.Status == JobRunning
	})
	close(exec.gate)
	waitFor(t, func() bool {
		v, err := s.Job(jv.ID)
		return err == nil && v.Status == JobDone
	})
	v, err := s.Job(jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutcomeMiss || len(v.Body) == 0 {
		t.Errorf("done job: outcome=%s body=%d bytes", v.Outcome, len(v.Body))
	}

	// A second async submission of the same spec is born done via cache.
	jv2, err := s.SubmitAsyncUnder(testSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if jv2.Status != JobDone || jv2.Outcome != OutcomeHit {
		t.Errorf("cached async job: status=%s outcome=%s, want done/hit", jv2.Status, jv2.Outcome)
	}
	if !bytes.Equal(jv2.Body, v.Body) {
		t.Error("cached async body differs")
	}
	if _, err := s.Job("r999999-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown id: %v", err)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, Executor: (&stubExecutor{}).exec})
	_, err := s.Submit(context.Background(), RunSpec{Benchmark: "LINPACK"})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("err = %v, want ErrInvalidSpec", err)
	}
}

func TestExecutorFailurePropagatesToAllWaiters(t *testing.T) {
	boom := errors.New("boom")
	s := newTestService(t, Config{Workers: 1, Executor: func(experiments.Options) (*report.RunReport, error) {
		return nil, boom
	}})
	if _, err := s.Submit(context.Background(), testSpec(1)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	// A failed run is not cached; the next submission re-executes.
	if _, err := s.Submit(context.Background(), testSpec(1)); !errors.Is(err, boom) {
		t.Errorf("retry err = %v, want boom (not a cache hit)", err)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	exec := &stubExecutor{gate: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 4, Executor: exec.exec})

	done := make(chan Result, 1)
	go func() {
		r, _ := s.Submit(context.Background(), testSpec(1))
		done <- r
	}()
	waitFor(t, func() bool { return exec.calls.Load() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// New work is rejected while draining (async, so the probe itself
	// never blocks on a held execution).
	waitFor(t, func() bool {
		_, err := s.SubmitAsyncUnder(testSpec(2), "")
		return errors.Is(err, ErrClosed)
	})
	close(exec.gate) // let the in-flight run finish
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.Outcome != OutcomeMiss || len(r.Body) == 0 {
		t.Errorf("in-flight run lost by graceful shutdown: %+v", r)
	}
}

func TestStatsLatencyPercentiles(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 1, Executor: exec.exec})
	for i := int64(1); i <= 20; i++ {
		if _, err := s.Submit(context.Background(), testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Completed != 20 {
		t.Errorf("completed = %d, want 20", st.Completed)
	}
	if st.ExecP50Ms < 0 || st.ExecP95Ms < st.ExecP50Ms {
		t.Errorf("percentiles inconsistent: p50=%g p95=%g", st.ExecP50Ms, st.ExecP95Ms)
	}
	if st.CacheEntries != 20 {
		t.Errorf("cache entries = %d, want 20", st.CacheEntries)
	}
}

// TestJobRegistryEviction checks finished jobs are evicted oldest-first
// past the registry bound.
func TestJobRegistryEviction(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 4, QueueDepth: maxJobs + 32, Executor: exec.exec})
	var first JobView
	for i := 0; i < maxJobs; i++ {
		jv, err := s.SubmitAsyncUnder(testSpec(int64(i+1)), "")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = jv
		}
	}
	// Let every run finish so eviction eligibility is deterministic, then
	// push the registry past its bound.
	waitFor(t, func() bool { return s.Stats().Completed == maxJobs })
	for i := 0; i < 10; i++ {
		if _, err := s.SubmitAsyncUnder(testSpec(int64(maxJobs+i+1)), ""); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > maxJobs {
		t.Errorf("registry holds %d jobs, bound is %d", n, maxJobs)
	}
	if _, err := s.Job(first.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest finished job should be evicted, got %v", err)
	}
}

// TestConcurrentMixedLoad is the -race workout: hits, misses and
// coalesced submissions racing across goroutines.
func TestConcurrentMixedLoad(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 4, QueueDepth: 64, Executor: exec.exec})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				spec := testSpec(int64(i % 5)) // heavy spec overlap
				if _, err := s.Submit(context.Background(), spec); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	total := st.Hits + st.Misses + st.Coalesced
	if total+st.Rejected != 240 {
		t.Errorf("accounted %d submissions (+%d rejected), want 240", total, st.Rejected)
	}
	if fmt.Sprint(st.Failed) != "0" {
		t.Errorf("failed = %d", st.Failed)
	}
}
