package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/store"
)

// memoTestOptions shrink runs enough that resuming every governor stays
// CI-cheap while still crossing several phase boundaries.
func memoTestOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	o.Reps = 1
	return o
}

func burstyEntry(t *testing.T) scenario.Entry {
	t.Helper()
	e, ok := scenario.Get("bursty")
	if !ok {
		t.Fatal("scenario bursty is not registered")
	}
	if e.Def == nil {
		t.Fatal("scenario bursty has no definition; the memo path needs one")
	}
	return e
}

// requireBitEqual asserts two runs are IEEE-754 bit-identical in every
// scalar output — the memo tier's whole soundness contract.
func requireBitEqual(t *testing.T, label string, a, b RunResult) {
	t.Helper()
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Governor != b.Governor || !eq(a.Seconds, b.Seconds) || !eq(a.Joules, b.Joules) ||
		!eq(a.EDP, b.EDP) || !eq(a.AvgUncoreGHz, b.AvgUncoreGHz) {
		t.Errorf("%s: results diverge:\n  a = %+v\n  b = %+v", label, a, b)
	}
}

// memoKeysAndPoints recomputes the run's prefix-key chain and snapshot
// boundaries exactly as newMemoPlan does, so tests can seed a tier with a
// chosen subset of snapshots.
func memoKeysAndPoints(t *testing.T, e scenario.Entry, gov string, opt Options, seed int64) (keys []string, points []int) {
	t.Helper()
	cfg := opt.machineConfig()
	regions, phases, err := e.Def.CompiledRegions(scenario.Params{
		Cores: cfg.Cores, Scale: opt.Scale, Seed: seed, Model: opt.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, err = prefixKeys(cfg, gov, opt.tuning(), seed, regions)
	if err != nil {
		t.Fatal(err)
	}
	for k := range snapshotPoints(phases) {
		points = append(points, k)
	}
	sort.Ints(points)
	return keys, points
}

// TestMemoResumeBitIdenticalAllGovernors runs one scenario under every
// registered governor three ways — without memoization, cold with an
// empty tier, and warm against the cold run's snapshots — and requires
// all three bit-identical. The warm run resumes at the program-end
// snapshot, skipping simulation entirely.
func TestMemoResumeBitIdenticalAllGovernors(t *testing.T) {
	e := burstyEntry(t)
	for _, gov := range governor.Names() {
		gov := gov
		t.Run(gov, func(t *testing.T) {
			t.Parallel()
			opt := memoTestOptions()
			plain, err := RunEntry(e, gov, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			opt.Memo = memo.New(0, nil)
			rs := &memo.RunStats{}
			opt.MemoStats = rs
			cold, err := RunEntry(e, gov, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunEntry(e, gov, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, "cold vs plain", cold, plain)
			requireBitEqual(t, "warm vs plain", warm, plain)
			v := rs.View()
			if v.Runs != 2 || v.PrefixHits != 1 {
				t.Errorf("stats = %+v, want 2 runs with 1 prefix hit", v)
			}
			if v.QuantaSaved != v.QuantaTotal/2 {
				t.Errorf("warm run saved %d of %d quanta, want a full skip", v.QuantaSaved, v.QuantaTotal)
			}
			if v.SnapshotsStored == 0 {
				t.Error("cold run stored no snapshots")
			}
		})
	}
}

// TestMemoMidPrefixResume forces a resume from an intermediate boundary:
// the warm tier holds only one mid-program snapshot, so the run restores
// it and actually simulates the suffix — the strongest equivalence check,
// covering machine restore, governor state and the work-sharing
// checkpoint together.
func TestMemoMidPrefixResume(t *testing.T) {
	e := burstyEntry(t)
	const gov = "cuttlefish"
	opt := memoTestOptions()
	plain, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}

	cold := memo.New(0, nil)
	opt.Memo = cold
	if _, err := RunEntry(e, gov, opt, 1); err != nil {
		t.Fatal(err)
	}

	keys, points := memoKeysAndPoints(t, e, gov, opt, 1)
	mid := points[len(points)/2]
	if mid == 0 || mid == len(keys)-1 {
		t.Fatalf("no intermediate snapshot point among %v", points)
	}
	body, ok := cold.Get(keys[mid])
	if !ok {
		t.Fatalf("cold run stored no snapshot at boundary %d", mid)
	}
	warmTier := memo.New(0, nil)
	warmTier.Put(keys[mid], body)

	opt.Memo = warmTier
	rs := &memo.RunStats{}
	opt.MemoStats = rs
	warm, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "mid-prefix resume vs plain", warm, plain)
	v := rs.View()
	if v.PrefixHits != 1 {
		t.Fatalf("stats = %+v, want a prefix hit", v)
	}
	if v.QuantaSaved <= 0 || v.QuantaSaved >= v.QuantaTotal {
		t.Errorf("saved %d of %d quanta, want a strict mid-program resume", v.QuantaSaved, v.QuantaTotal)
	}
}

// TestMemoCorruptSnapshotFallsBack plants defective snapshots under valid
// keys and requires every one to be treated as a miss: the run re-executes
// from boot and stays bit-identical to the memo-free result.
func TestMemoCorruptSnapshotFallsBack(t *testing.T) {
	e := burstyEntry(t)
	const gov = "cuttlefish"
	opt := memoTestOptions()
	plain, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.New(0, nil)
	opt.Memo = cold
	if _, err := RunEntry(e, gov, opt, 1); err != nil {
		t.Fatal(err)
	}
	keys, _ := memoKeysAndPoints(t, e, gov, opt, 1)
	final := keys[len(keys)-1]
	good, ok := cold.Get(final)
	if !ok {
		t.Fatal("cold run stored no program-end snapshot")
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff // inside the checksummed machine snapshot
	cases := map[string][]byte{
		"bad magic":        []byte("not a snapshot container"),
		"truncated":        good[:len(good)-7],
		"corrupt interior": flipped,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			tier := memo.New(0, nil)
			tier.Put(final, body)
			o := memoTestOptions()
			o.Memo = tier
			rs := &memo.RunStats{}
			o.MemoStats = rs
			res, err := RunEntry(e, gov, o, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, "fallback re-execute vs plain", res, plain)
			if v := rs.View(); v.PrefixHits != 0 {
				t.Errorf("stats = %+v, want no prefix hit for a defective snapshot", v)
			}
		})
	}
}

// openStore opens a store over dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMemoColdRunWritesOnePack pins the disk tier's cold-path I/O: a
// cold run over an empty memo dir fails no disk read and leaves one
// object, the pack of every snapshot it took, and a fresh tier over the
// reopened dir resumes from that pack bit-identically.
func TestMemoColdRunWritesOnePack(t *testing.T) {
	e := burstyEntry(t)
	const gov = "cuttlefish"
	opt := memoTestOptions()
	plain, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	disk := openStore(t, dir)
	opt.Memo = memo.New(0, disk)
	rs := &memo.RunStats{}
	opt.MemoStats = rs
	cold, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "cold vs plain", cold, plain)
	_, points := memoKeysAndPoints(t, e, gov, opt, 1)
	if v := rs.View(); v.SnapshotsStored != len(points) {
		t.Errorf("cold run stored %d snapshots, want one per snapshot point (%d)", v.SnapshotsStored, len(points))
	}
	if info := disk.Info(); info.Entries != 1 || info.Misses != 0 {
		t.Errorf("cold run left %d objects after %d failed reads, want 1 pack and none", info.Entries, info.Misses)
	}

	opt.Memo = memo.New(0, openStore(t, dir))
	rs = &memo.RunStats{}
	opt.MemoStats = rs
	warm, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "resumed from the pack vs plain", warm, plain)
	if v := rs.View(); v.PrefixHits != 1 || v.QuantaSaved != v.QuantaTotal {
		t.Errorf("stats = %+v, want a full-program resume from the pack", v)
	}
}

// TestMemoOneObjectPerSnapshotDirReadsAsMisses plants a memo dir in the
// older layout, one raw snapshot container per key, and requires a fresh
// tier to read every key as a miss: the run re-executes bit-identically
// and writes its snapshots as a pack beside the old objects.
func TestMemoOneObjectPerSnapshotDirReadsAsMisses(t *testing.T) {
	e := burstyEntry(t)
	const gov = "cuttlefish"
	opt := memoTestOptions()
	plain, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := memo.New(0, nil)
	opt.Memo = mem
	if _, err := RunEntry(e, gov, opt, 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := openStore(t, dir)
	keys, points := memoKeysAndPoints(t, e, gov, opt, 1)
	for _, k := range points {
		body, ok := mem.Get(keys[k])
		if !ok {
			t.Fatalf("cold run stored no snapshot at boundary %d", k)
		}
		if err := old.Put(keys[k], body); err != nil {
			t.Fatal(err)
		}
	}

	disk := openStore(t, dir)
	tier := memo.New(0, disk)
	for _, k := range points {
		if _, ok := tier.Get(keys[k]); ok {
			t.Fatalf("one-object-per-snapshot entry at boundary %d read as a hit", k)
		}
	}
	opt.Memo = tier
	rs := &memo.RunStats{}
	opt.MemoStats = rs
	res, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "re-execution over an old memo dir vs plain", res, plain)
	if v := rs.View(); v.PrefixHits != 0 || v.SnapshotsStored != len(points) {
		t.Errorf("stats = %+v, want a full re-execution storing %d snapshots", v, len(points))
	}
	if got := disk.Len(); got != len(points)+1 {
		t.Errorf("memo dir holds %d objects, want the %d old ones plus one pack", got, len(points))
	}
}

// tailProgram is an eight-phase program, alternating compute and memory
// phases, ending in a tail of the given instruction count.
func tailProgram(tail float64) *scenario.Definition {
	d := &scenario.Definition{Name: "tail-edit"}
	for k := 0; k < 8; k++ {
		p := scenario.PhaseDef{Name: fmt.Sprintf("compute-%d", k), Instructions: 3e11, MissPerInstr: 0.0005, IPC: 2.0}
		if k%2 == 1 {
			p = scenario.PhaseDef{Name: fmt.Sprintf("memory-%d", k), Instructions: 3e11, MissPerInstr: 0.01, IPC: 1.2, RemoteFrac: 0.2}
		}
		d.Phases = append(d.Phases, p)
	}
	d.Phases = append(d.Phases, scenario.PhaseDef{Name: "tail", Instructions: tail, MissPerInstr: 0.004, IPC: 1.6})
	return d
}

// TestMemoResumesAcrossTailEdits memoizes a program, then doubles its
// tail. The edit moves the program's estimated duration and with it the
// simulation deadline, which must not re-key the unchanged prefix: every
// governor resumes at the tail and still reports the fresh run's bytes.
func TestMemoResumesAcrossTailEdits(t *testing.T) {
	for _, gov := range governor.Names() {
		t.Run(gov, func(t *testing.T) {
			t.Parallel()
			opt := DefaultOptions()
			opt.Scale = 0.05
			opt.Reps = 1
			opt.WarmupSec = 0.25
			opt.Governor = gov
			opt.ScenarioDef = tailProgram(2e11)
			fresh := runReportBytes(t, opt, "")

			opt.Memo = memo.New(0, nil)
			opt.ScenarioDef = tailProgram(1e11)
			runReportBytes(t, opt, "")
			opt.ScenarioDef = tailProgram(2e11)
			rs := &memo.RunStats{}
			opt.MemoStats = rs
			if got := runReportBytes(t, opt, ""); !bytes.Equal(got, fresh) {
				t.Error("resumed report differs from a fresh run's")
			}
			v := rs.View()
			if v.PrefixHits != 1 {
				t.Fatalf("stats = %+v, want the edited program to resume", v)
			}
			if saved := float64(v.QuantaSaved) / float64(v.QuantaTotal); saved < 0.8 {
				t.Errorf("resume skipped %.0f%% of quanta, want the whole unchanged prefix", 100*saved)
			}
		})
	}
}
