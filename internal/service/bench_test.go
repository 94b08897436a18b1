package service

import (
	"context"
	"testing"
	"time"
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
