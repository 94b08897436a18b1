package experiments

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/scenario"
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
// in-process and per governor: tailProgram (eight 3e11-instruction
// phases, then a 1e11 tail) at scale 0.05, seed 7 and a 0.25 s warm-up,
// with a tail remote fraction no earlier op used. So each op misses the
// program end, resumes from the population run's snapshot at the tail's
// start in an in-memory tier (machine and governor state), simulates the
// tail and snapshots the program end.
func BenchmarkMemoResume(b *testing.B) {
	for _, gov := range governor.Names() {
		b.Run(gov, func(b *testing.B) {
			opt := DefaultOptions()
			opt.Scale, opt.Reps, opt.Seed, opt.WarmupSec = 0.05, 1, 7, 0.25
			opt.Governor = gov
			opt.Memo = memo.New(0, nil)
			run := func(tailRemote float64) memo.RunStatsView {
				opt.ScenarioDef = tailProgram(1e11)
				opt.ScenarioDef.Phases[8].RemoteFrac = tailRemote
				rs := &memo.RunStats{}
				opt.MemoStats = rs
				if _, err := RunOneReport(opt); err != nil {
					b.Fatal(err)
				}
				return rs.View()
			}
			run(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				_, tail := math.Modf(float64(i) * math.Phi)
				if v := run(0.5 * tail); v.PrefixHits != 1 {
					b.Fatalf("op %d did not resume: %+v", i, v)
				}
			}
		})
	}
}
