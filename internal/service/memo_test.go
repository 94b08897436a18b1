package service

import (
	"context"
	"testing"

	"repro/internal/memo"
)

// memoSpec is a real (non-stub) spec small enough for CI: the memo tier
// only engages on the default executor, which actually simulates.
func memoSpec(reps int) RunSpec {
	return RunSpec{Scenario: "bursty", Scale: 0.02, Reps: reps, Seed: 1, Governor: "cuttlefish"}
}

// TestServiceMemoPrefixResume drives the memo tier through the real
// executor: a one-rep spec populates snapshots, then a two-rep spec —
// a different content hash, so a result-cache miss — resumes rep 0 from
// the memoized program end and reports the prefix hit in Result.Memo.
func TestServiceMemoPrefixResume(t *testing.T) {
	tier := memo.New(0, nil)
	s := newTestService(t, Config{Workers: 1, Memo: tier})

	r1, err := s.Submit(context.Background(), memoSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != OutcomeMiss {
		t.Fatalf("first outcome = %s, want miss", r1.Outcome)
	}
	if r1.Memo == nil || r1.Memo.Runs != 1 || r1.Memo.SnapshotsStored == 0 {
		t.Fatalf("first Memo = %+v, want 1 run with stored snapshots", r1.Memo)
	}

	r2, err := s.Submit(context.Background(), memoSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Outcome != OutcomeMiss {
		t.Fatalf("second outcome = %s, want miss (different reps, different hash)", r2.Outcome)
	}
	if r2.Memo == nil || r2.Memo.Runs != 2 || r2.Memo.PrefixHits != 1 {
		t.Fatalf("second Memo = %+v, want 2 runs with 1 prefix hit (rep 0 shared)", r2.Memo)
	}
	if r2.Memo.QuantaSaved <= 0 {
		t.Errorf("second Memo saved %d quanta, want > 0", r2.Memo.QuantaSaved)
	}

	st := s.Stats()
	if st.Memo == nil || st.Memo.PrefixHits != 1 || st.Memo.Entries == 0 {
		t.Errorf("Stats.Memo = %+v, want 1 prefix hit and live entries", st.Memo)
	}
	ci := s.CacheInfo()
	if ci.Memo == nil || ci.Memo.Entries == 0 {
		t.Errorf("CacheInfo.Memo = %+v, want live entries", ci.Memo)
	}
	if err := s.PurgeCache(); err != nil {
		t.Fatal(err)
	}
	if after := s.CacheInfo(); after.Memo == nil || after.Memo.Entries != 0 {
		t.Errorf("post-purge CacheInfo.Memo = %+v, want 0 entries", after.Memo)
	}
}

// TestStatsHitLatencyWindow checks cache hits land in the hit window,
// separate from execution latency: with hits recorded, the microsecond
// percentiles are populated and ordered.
func TestStatsHitLatencyWindow(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestService(t, Config{Workers: 1, Executor: exec.exec})
	if _, err := s.Submit(context.Background(), testSpec(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := s.Submit(context.Background(), testSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != OutcomeHit {
			t.Fatalf("outcome = %s, want hit", r.Outcome)
		}
	}
	st := s.Stats()
	if st.Hits != 5 {
		t.Errorf("hits = %d, want 5", st.Hits)
	}
	if st.HitP50Us <= 0 || st.HitP95Us < st.HitP50Us {
		t.Errorf("hit percentiles inconsistent: p50=%gus p95=%gus", st.HitP50Us, st.HitP95Us)
	}
	if st.ExecP95Ms < st.ExecP50Ms {
		t.Errorf("exec percentiles inconsistent: p50=%gms p95=%gms", st.ExecP50Ms, st.ExecP95Ms)
	}
}

// memoHeaderSample is a fully populated X-Memo value; badMemoHeaders are
// values the parser must refuse.
var (
	memoHeaderSample = memo.RunStatsView{Runs: 5, PrefixHits: 2, QuantaSaved: 1560, QuantaTotal: 3900, SnapshotsStored: 31}
	badMemoHeaders   = []string{"", "runs", "runs=x", "runs=1 prefix_hits"}
)

func TestMemoHeaderRoundTrip(t *testing.T) {
	v := memoHeaderSample
	got, ok := ParseMemoHeader(FormatMemoHeader(v))
	if !ok || got != v {
		t.Errorf("round trip = %+v, %v; want %+v, true", got, ok, v)
	}
	for _, bad := range badMemoHeaders {
		if _, ok := ParseMemoHeader(bad); ok {
			t.Errorf("ParseMemoHeader(%q) accepted a malformed value", bad)
		}
	}
	// Unknown keys are ignored so the format can grow.
	if got, ok := ParseMemoHeader("runs=3 future_field=9"); !ok || got.Runs != 3 {
		t.Errorf("forward-compat parse = %+v, %v", got, ok)
	}
}

// FuzzParseMemoHeader feeds arbitrary X-Memo values to the parser, which
// reads them off remote responses: it never panics, a refused value
// yields the zero view, and an accepted one formats back to a header that
// parses to the same view.
func FuzzParseMemoHeader(f *testing.F) {
	f.Add(FormatMemoHeader(memoHeaderSample))
	for _, s := range badMemoHeaders {
		f.Add(s)
	}
	f.Add("runs=3 future_field=9")
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := ParseMemoHeader(s)
		if !ok {
			if v != (memo.RunStatsView{}) {
				t.Fatalf("refused %q but returned %+v", s, v)
			}
			return
		}
		again, ok := ParseMemoHeader(FormatMemoHeader(v))
		if !ok || again != v {
			t.Fatalf("%q parsed to %+v, whose header parses to %+v, %v", s, v, again, ok)
		}
	})
}
