package experiments

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/store"
)

// BenchmarkPrefixResume measures the warm path: an 8-governor sweep
// against a tier populated by an identical cold sweep, so every run
// resumes at its memoized program end.
func BenchmarkPrefixResume(b *testing.B) {
	tier := memo.New(0, nil)
	opt := memoTestOptions()
	opt.Memo = tier
	entry, ok := scenario.Get("bursty")
	if !ok || entry.Def == nil {
		b.Fatal("scenario bursty is not registered as memoizable")
	}
	for _, gov := range governor.Names() {
		if _, err := RunEntry(entry, gov, opt, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gov := range governor.Names() {
			if _, err := RunEntry(entry, gov, opt, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMemoResume times one cfbench memo-resume request per op,
// in-process: tailProgram (eight 3e11-instruction phases, then a 1e11
// tail) at scale 0.05, seed 7 and a 0.25 s warm-up, with a tail remote
// fraction no earlier op used. So each op misses the program end,
// resumes from the population run's snapshot at the tail's start
// (machine and governor state), simulates the tail and snapshots the
// program end. The per-governor sub-benchmarks use an in-memory tier.
// The disk sub-benchmark rotates over every governor, as cfbench's
// stream does, through a tier over a store: each governor's first op
// promotes its resume snapshot from disk, and every end snapshot goes to
// disk only.
func BenchmarkMemoResume(b *testing.B) {
	for _, gov := range governor.Names() {
		b.Run(gov, func(b *testing.B) {
			benchMemoResume(b, []string{gov}, memo.New(0, nil))
		})
	}
	b.Run("disk", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		tier := memo.New(0, st)
		govs := governor.Names()
		benchMemoResume(b, govs, tier)
		if info := tier.Info(); info.Entries != min(b.N, len(govs)) || info.Disk.Hits != uint64(info.Entries) {
			b.Fatalf("%d ops left %d snapshots in memory after %d disk reads, want only each governor's promoted resume snapshot",
				b.N, info.Entries, info.Disk.Hits)
		}
	})
}

// benchMemoResume stores the population run of each governor in govs,
// then times b.N tail edits, op i under govs[i%len(govs)].
func benchMemoResume(b *testing.B, govs []string, tier *memo.Tier) {
	opt := DefaultOptions()
	opt.Scale, opt.Reps, opt.Seed, opt.WarmupSec = 0.05, 1, 7, 0.25
	opt.Memo = tier
	run := func(gov string, tailRemote float64) memo.RunStatsView {
		opt.Governor = gov
		opt.ScenarioDef = tailProgram(1e11)
		opt.ScenarioDef.Phases[8].RemoteFrac = tailRemote
		rs := &memo.RunStats{}
		opt.MemoStats = rs
		if _, err := RunOneReport(opt); err != nil {
			b.Fatal(err)
		}
		return rs.View()
	}
	for _, gov := range govs {
		run(gov, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		_, tail := math.Modf(float64(i) * math.Phi)
		if v := run(govs[i%len(govs)], 0.5*tail); v.PrefixHits != 1 {
			b.Fatalf("op %d did not resume: %+v", i, v)
		}
	}
	b.StopTimer()
}
