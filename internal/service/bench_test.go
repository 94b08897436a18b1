package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// BenchmarkServiceCacheHit measures the steady-state cost of serving a
// previously computed spec: one cache lookup plus a copy of the canonical
// bytes. Compare with BenchmarkServiceCacheCold for the speedup the
// content-addressed cache buys.
func BenchmarkServiceCacheHit(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	spec := realSpec()
	if _, err := s.Submit(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != OutcomeHit {
			b.Fatalf("outcome = %s, want hit", res.Outcome)
		}
	}
}

// BenchmarkServiceCacheCold measures a full execution per iteration: the
// spec's seed changes every round so nothing is ever served from cache.
func BenchmarkServiceCacheCold(b *testing.B) {
	s := New(Config{Workers: 1, CacheEntries: 4})
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := realSpec()
		spec.Seed = int64(i + 1)
		res, err := s.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != OutcomeMiss {
			b.Fatalf("outcome = %s, want miss", res.Outcome)
		}
	}
}

// measureColdAndHit times one cold execution and the mean of hits
// hot-path submissions of the same spec.
func measureColdAndHit(t testing.TB, hits int) (cold, hit time.Duration) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	spec := realSpec()

	start := time.Now()
	if _, err := s.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	cold = time.Since(start)

	start = time.Now()
	for i := 0; i < hits; i++ {
		res, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeHit {
			t.Fatalf("outcome = %s, want hit", res.Outcome)
		}
	}
	hit = time.Since(start) / time.Duration(hits)
	return cold, hit
}

// TestServiceCacheHitSpeedup asserts the acceptance criterion directly: a
// cache hit must be at least 50× cheaper than the cold execution it
// replaces. In practice the gap is 3–4 orders of magnitude; 50× leaves
// room for the noisiest CI hosts.
func TestServiceCacheHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	cold, hit := measureColdAndHit(t, 200)
	speedup := float64(cold) / float64(hit)
	t.Logf("cold %v, hit %v, speedup %.0f×", cold, hit, speedup)
	if speedup < 50 {
		t.Errorf("cache hit speedup = %.1f×, want >= 50×", speedup)
	}
}

// memoResumeSpec is a cfbench memo-resume request: eight phases
// alternating compute and memory, then an edited tail.
func memoResumeSpec() RunSpec {
	def := &scenario.Definition{Name: "cfbench-memo"}
	for k := 0; k < 8; k++ {
		p := scenario.PhaseDef{Name: fmt.Sprintf("compute-%d", k), Instructions: 3e11, MissPerInstr: 0.0005, IPC: 2.0}
		if k%2 == 1 {
			p = scenario.PhaseDef{Name: fmt.Sprintf("memory-%d", k), Instructions: 3e11, MissPerInstr: 0.01, IPC: 1.2, RemoteFrac: 0.2}
		}
		def.Phases = append(def.Phases, p)
	}
	def.Phases = append(def.Phases, scenario.PhaseDef{Name: "tail", Instructions: 1e11, MissPerInstr: 0.004, IPC: 1.6,
		RemoteFrac: 0.3090169943749474, JitterFrac: 0.12426406871192851})
	return RunSpec{ScenarioDef: def, Governor: "cuttlefish", Scale: 0.05, Seed: 7, WarmupSec: 0.25, Reps: 1}
}

// BenchmarkRequestCodecs times the codecs on a memo-resume request's
// path outside the simulation. Each op parses the request body as
// POST /v1/runs does, hashes the normalized spec and encodes the run's
// report. "plain" is the body json.Marshal writes; "escaped" spells one
// name with a JSON escape, which sends the body to encoding/json, so
// the two differ by what the fallback costs.
func BenchmarkRequestCodecs(b *testing.B) {
	spec := memoResumeSpec()
	plain, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := experiments.BuildReport(experiments.Options{Spec: spec.Normalized(), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"plain", plain},
		{"escaped", bytes.Replace(plain, []byte(`"tail"`), []byte(`"t\u0061il"`), 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s, err := experiments.ParseSpec(bc.body)
				if err != nil {
					b.Fatal(err)
				}
				if s.Normalized().Hash() == "" {
					b.Fatal("empty hash")
				}
				if _, err := rep.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
