package service

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/scenario"
)

// coldAllocBudget bounds the bytes one cold request allocates, averaged
// over the replay below. It measured 45.6-45.9 KB on go1.24/amd64 once
// the memo key chain hex-encoded only its snapshot points' keys and
// untraced runs stopped naming their lanes, against 51.7-51.8 KB before
// and 124 KB when every UTS run regrew its deques from empty. The
// budget, 56 KiB, leaves 25% over the measured value for toolchain and
// platform drift.
const coldAllocBudget = 56 << 10

// TestColdRequestAllocationBudget replays the registered workloads twice
// through a service with a result store and a disk memo tier, as cfbench
// cold-novel traffic arrives: each request is a never-seen spec at scale
// 0.03 with a 0.25 s warm-up, and the workloads take the governors in
// turn. The first pass warms what a serving process keeps warm (deque
// buffers, store segments); the second must average under
// coldAllocBudget, so that a cold request's allocation cannot silently
// regrow.
func TestColdRequestAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector instruments allocation")
	}
	dir := t.TempDir()
	s := newTestService(t, Config{Workers: 1,
		Store: mustStore(t, filepath.Join(dir, "store")),
		Memo:  memo.New(16<<20, mustStore(t, filepath.Join(dir, "memo")))})
	names, govs := scenario.Names(), governor.Names()
	replay := func(pass int) {
		for i, name := range names {
			spec := RunSpec{Scenario: name, Governor: govs[i%len(govs)], Scale: 0.03, WarmupSec: 0.25, Reps: 1,
				Seed: int64(pass*len(names) + i + 1)}
			if res, err := s.Submit(context.Background(), spec); err != nil || res.Outcome != OutcomeMiss {
				t.Fatalf("pass %d, %s: outcome %s, err %v; want an executed miss", pass, name, res.Outcome, err)
			}
		}
	}
	replay(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay(1)
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / uint64(len(names))
	t.Logf("%d bytes and %d objects per cold request", perRequest, (after.Mallocs-before.Mallocs)/uint64(len(names)))
	if perRequest > coldAllocBudget {
		t.Errorf("a cold request allocated %d bytes on average, over the %d-byte budget", perRequest, coldAllocBudget)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
