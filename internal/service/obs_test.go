package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/store"
)

// newObsService builds a service with every observability feature on:
// metrics registry, trace store (LRU + Chrome files).
func newObsService(t *testing.T, cfg Config) *Service {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	cfg.Traces = obs.NewTraceStore(16, t.TempDir())
	return newTestService(t, cfg)
}

func mustStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestObservabilityPreservesReportBytes is the determinism-boundary
// regression test: a fully instrumented service (tracing + metrics) must
// produce byte-identical canonical reports to an uninstrumented one on
// every path — cold miss, memo prefix resume, LRU hit and
// persistent-store hit. Observability is wall-clock-only; if any
// of it leaks into simulated state or report encoding, this fails.
func TestObservabilityPreservesReportBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	plainDir, obsDir := t.TempDir(), t.TempDir()
	plain := newTestService(t, Config{Workers: 1, Memo: memo.New(0, nil), Store: mustStore(t, plainDir)})
	instr := newObsService(t, Config{Workers: 1, Memo: memo.New(0, nil), Store: mustStore(t, obsDir)})

	// Cold miss, then a second spec whose rep-0 resumes from the first's
	// memoized program end — the memo restore path under tracing.
	var lastInstr Result
	for _, spec := range []RunSpec{memoSpec(1), memoSpec(2)} {
		a, err := plain.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := instr.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Outcome != OutcomeMiss || b.Outcome != OutcomeMiss {
			t.Fatalf("outcomes = %s/%s, want miss/miss", a.Outcome, b.Outcome)
		}
		if !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("instrumented miss differs from plain for reps=%d", spec.Reps)
		}
		lastInstr = b
	}
	if lastInstr.Memo == nil || lastInstr.Memo.PrefixHits == 0 {
		t.Fatal("instrumented service never exercised the memo prefix-resume path")
	}

	// LRU hit path.
	a, err := plain.Submit(ctx, memoSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := instr.Submit(ctx, memoSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != OutcomeHit || b.Outcome != OutcomeHit {
		t.Fatalf("outcomes = %s/%s, want hit/hit", a.Outcome, b.Outcome)
	}
	if !bytes.Equal(a.Body, b.Body) {
		t.Fatal("instrumented cache hit differs from plain")
	}

	// Persistent-store path: fresh services over the same directories
	// have an empty LRU but a warm disk tier.
	plain2 := newTestService(t, Config{Workers: 1, Store: mustStore(t, plainDir)})
	instr2 := newObsService(t, Config{Workers: 1, Store: mustStore(t, obsDir)})
	a2, err := plain2.Submit(ctx, memoSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := instr2.Submit(ctx, memoSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Outcome != OutcomeDisk || b2.Outcome != OutcomeDisk {
		t.Fatalf("outcomes = %s/%s, want disk/disk", a2.Outcome, b2.Outcome)
	}
	if !bytes.Equal(a2.Body, b2.Body) {
		t.Fatal("instrumented disk hit differs from plain")
	}

	// Sanity: the instrumented service really was observing, not
	// silently disabled — traces were recorded and metrics moved.
	if instr.cfg.Traces.Cache().Len() == 0 {
		t.Error("instrumented service recorded no traces")
	}
	var buf bytes.Buffer
	if err := instr.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cf_cache_requests_total", "cf_exec_seconds_bucket", "cf_memo_prefix_hits_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}
