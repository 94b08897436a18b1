package experiments

import (
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
