package fuzz

import (
	"context"
	"testing"

	"repro/internal/orchestrator"
	"repro/internal/service"
)

// BenchmarkGenerate measures raw corpus expansion: sampling, validation,
// the JSON round-trip self-check and hash-dedup, per 100 scenarios.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{N: 100, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifferentialWarm measures the differential pass over a cached
// service: every cell a content-address hit (TestWarmPassServedFromCache
// pins that outcome).
func BenchmarkDifferentialWarm(b *testing.B) {
	corpus, err := Generate(Config{N: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64})
	defer svc.Close()
	pool := []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}
	cfg := Config{N: 5, Seed: 1}
	if _, err := Run(context.Background(), pool, corpus, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), pool, corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
