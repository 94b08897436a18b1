package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/tipi"
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

// memoKeysAndPoints recomputes the run's whole prefix-key chain (keys[k]
// is the key of boundary k, for every k) and its snapshot boundaries as
// newMemoPlan does, so tests can seed a tier with a chosen subset of
// snapshots.
func memoKeysAndPoints(t testing.TB, e scenario.Entry, gov string, opt Options, seed int64) (keys []string, points []int) {
	t.Helper()
	cfg := opt.machineConfig()
	regions, bounds, err := e.Def.CompiledRegions(scenario.Params{
		Cores: cfg.Cores, Scale: opt.Scale, Seed: seed, Model: opt.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	every := make([]int, len(regions)+1)
	for k := range every {
		every[k] = k
	}
	keys, err = prefixKeys(cfg, gov, opt.tuning(), seed, regions, every)
	if err != nil {
		t.Fatal(err)
	}
	return keys, snapshotPoints(bounds, len(regions))
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
	t.Cleanup(func() { st.Close() })
	return st
}

// TestMemoColdRunWritesOneRecordPerSnapshot pins the disk tier's
// cold-path I/O: a cold run over an empty memo dir probes each of its
// snapshot points once, reads no record, and appends one record per
// point; a fresh tier over the reopened dir resumes from the program-end
// record bit-identically.
func TestMemoColdRunWritesOneRecordPerSnapshot(t *testing.T) {
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
	if info := disk.Info(); info.Entries != len(points) || info.Hits != 0 || info.Misses != uint64(len(points)) {
		t.Errorf("cold run left %d records after %d reads and %d probe misses, want %d, none and %d",
			info.Entries, info.Hits, info.Misses, len(points), len(points))
	}

	opt.Memo = memo.New(0, openStore(t, dir))
	rs = &memo.RunStats{}
	opt.MemoStats = rs
	warm, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "resumed from disk vs plain", warm, plain)
	if v := rs.View(); v.PrefixHits != 1 || v.QuantaSaved != v.QuantaTotal {
		t.Errorf("stats = %+v, want a full-program resume from disk", v)
	}
}

// parentPack lays snapshots out in the memo dir's former pack format,
// one store record per run: "cfpack1\n", an entry count, a key table of
// raw 32-byte key and body length rows, then the bodies, named by the
// SHA-256 of the key table.
func parentPack(t *testing.T, keys []string, bodies [][]byte) (name string, pack []byte) {
	t.Helper()
	pack = binary.BigEndian.AppendUint32([]byte("cfpack1\n"), uint32(len(keys)))
	for i, k := range keys {
		raw, err := hex.DecodeString(k)
		if err != nil {
			t.Fatal(err)
		}
		pack = binary.BigEndian.AppendUint32(append(pack, raw...), uint32(len(bodies[i])))
	}
	sum := sha256.Sum256(pack)
	for _, b := range bodies {
		pack = append(pack, b...)
	}
	return hex.EncodeToString(sum[:]), pack
}

// TestMemoParentPackDirReadsAsMisses plants a memo dir in the former
// layout, one pack holding every snapshot of a run, and requires a fresh
// tier to read every snapshot key as a miss: the run re-executes
// bit-identically and writes its snapshots as records beside the pack.
func TestMemoParentPackDirReadsAsMisses(t *testing.T) {
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
	keys, points := memoKeysAndPoints(t, e, gov, opt, 1)
	var packKeys []string
	var bodies [][]byte
	for _, k := range points {
		body, ok := mem.Get(keys[k])
		if !ok {
			t.Fatalf("cold run stored no snapshot at boundary %d", k)
		}
		packKeys, bodies = append(packKeys, keys[k]), append(bodies, body)
	}
	dir := t.TempDir()
	name, pack := parentPack(t, packKeys, bodies)
	if err := openStore(t, dir).Put(name, pack); err != nil {
		t.Fatal(err)
	}

	disk := openStore(t, dir)
	opt.Memo = memo.New(0, disk)
	rs := &memo.RunStats{}
	opt.MemoStats = rs
	res, err := RunEntry(e, gov, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "re-execution over a pack-layout memo dir vs plain", res, plain)
	if v := rs.View(); v.PrefixHits != 0 || v.SnapshotsStored != len(points) {
		t.Errorf("stats = %+v, want a full re-execution storing %d snapshots", v, len(points))
	}
	if got := disk.Len(); got != len(points)+1 {
		t.Errorf("memo dir holds %d records, want the pack plus %d snapshots", got, len(points))
	}
}

// parentContainer rewrites a snapshot container in the cfmemo1 layout
// the previous version wrote: the same machine snapshot and checkpoint,
// with the daemon's state as the JSON its tagged state types produced.
func parentContainer(t *testing.T, body []byte) []byte {
	t.Helper()
	machineSnap, govBlob, cp, err := decodeContainer(body)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.DecodeDaemonState(govBlob)
	if err != nil {
		t.Fatal(err)
	}
	explorer := func(e tipi.ExplorerState) map[string]any {
		readings := make([]map[string]any, len(e.Readings))
		for i, r := range e.Readings {
			readings[i] = map[string]any{"sum": r.Sum, "n": r.N}
		}
		return map[string]any{"lb": e.LB, "rb": e.RB, "opt": e.Opt, "readings": readings}
	}
	nodes := make([]map[string]any, len(st.Nodes))
	for i, n := range st.Nodes {
		nodes[i] = map[string]any{"slab": n.Slab, "cf": explorer(n.CF), "uf": explorer(n.UF), "uf_range_set": n.UFRangeSet, "hits": n.Hits}
	}
	blob, err := json.Marshal(map[string]any{
		"nprev": st.NPrev, "cf_prev": st.CFPrev, "uf_prev": st.UFPrev, "warmup_end": st.WarmupEnd,
		"warmed": st.Warmed, "stopped": st.Stopped, "samples": st.Samples, "exploring": st.Exploring,
		"profiler": map[string]any{"last_instr": st.Profiler.LastInstr, "last_tor": st.Profiler.LastTor,
			"last_energy": st.Profiler.LastEnergy, "primed": st.Profiler.Primed},
		"nodes": nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte("cfmemo1\n"), encodeContainer(machineSnap, blob, cp)[len(memoContainerMagic):]...)
}

// TestMemoParentJSONRecordsReExecuteOnce plants a memo dir as the
// previous version left it, a cfmemo1 container with a JSON daemon state
// under every snapshot key of a run. The run probes one of those keys,
// cannot restore it, and re-executes from boot bit-identically, writing
// its own containers under the same keys; the next run resumes from them.
func TestMemoParentJSONRecordsReExecuteOnce(t *testing.T) {
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
	keys, points := memoKeysAndPoints(t, e, gov, opt, 1)
	dir := t.TempDir()
	parentDir := openStore(t, dir)
	for _, k := range points {
		body, ok := mem.Get(keys[k])
		if !ok {
			t.Fatalf("cold run stored no snapshot at boundary %d", k)
		}
		if err := parentDir.Put(keys[k], parentContainer(t, body)); err != nil {
			t.Fatal(err)
		}
	}

	for run, wantHits := range []int{0, 1} {
		disk := openStore(t, dir)
		opt.Memo = memo.New(0, disk)
		rs := &memo.RunStats{}
		opt.MemoStats = rs
		res, err := RunEntry(e, gov, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("run %d over a cfmemo1 memo dir vs plain", run), res, plain)
		if v := rs.View(); v.PrefixHits != wantHits || disk.Info().Hits != 1 {
			t.Errorf("run %d: stats = %+v after %d record reads, want %d prefix hits after one read",
				run, v, disk.Info().Hits, wantHits)
		}
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

// TestSnapshotPoints pins which boundaries each memoizable built-in
// snapshots — its first pass's phase starts, that pass's end and its own
// end — and the cap on phase starts for a long program.
func TestSnapshotPoints(t *testing.T) {
	want := map[string][]int{
		"compute-bound": {1, 50},
		"memory-bound":  {1, 40},
		"numa-remote":   {1, 40},
		"bursty":        {1, 2, 120},
		"ramp":          {30, 60, 90, 120, 150},
		"multiphase":    {1, 2, 3, 240},
	}
	opt := memoTestOptions()
	for name, pts := range want {
		e, ok := scenario.Get(name)
		if !ok || e.Def == nil {
			t.Fatalf("scenario %s is not a registered phase program", name)
		}
		if _, got := memoKeysAndPoints(t, e, "cuttlefish", opt, 1); !slices.Equal(got, pts) {
			t.Errorf("%s snapshots %v, want %v", name, got, pts)
		}
	}
	bounds := make([]int, 41) // a 40-phase program, Repeat 2, 3 iterations
	for j := range bounds {
		bounds[j] = 2 * j
	}
	got := snapshotPoints(bounds, 240)
	if len(got) != snapshotPhases+2 || got[0] != 2 || got[snapshotPhases-1] != 60 || got[snapshotPhases] != 80 || got[snapshotPhases+1] != 240 {
		t.Errorf("40-phase program snapshots %v, want the starts of phases 1-30, then 80 and 240", got)
	}
}

// TestPrefixKeysPinned pins the snapshot keys ramp's run probes and
// stores under cuttlefish, as the version that hex-encoded every region's
// key computed them, so a memo dir written by that version still resumes.
// The whole chain keys the same boundaries to the same values.
func TestPrefixKeysPinned(t *testing.T) {
	want := []string{
		"81f41ed18f2a83b7a710deda1a2750b188a0a39d7d7b24dae02bb62c8f173118",
		"7ed48c049a0d09fd042d1ac50368b4cb314075628b5c79f5a8484941488170fc",
		"70b6b69be7d484716cd353a08fe9d51746f15cf75364f3d87bef16991c6a3642",
		"38030ab1d4358be540d3801bdc557940ce4d78e4e1187aabc7812ccdc7334b3b",
		"4e990069661456cecf4502d35f2cd62948e30eaa58bb5a6ec67f1436b01d7b0f",
	}
	e, ok := scenario.Get("ramp")
	if !ok || e.Def == nil {
		t.Fatal("scenario ramp is not a registered phase program")
	}
	opt := memoTestOptions()
	cfg := opt.machineConfig()
	regions, bounds, err := e.Def.CompiledRegions(scenario.Params{Cores: cfg.Cores, Scale: opt.Scale, Seed: 1, Model: opt.Model})
	if err != nil {
		t.Fatal(err)
	}
	points := snapshotPoints(bounds, len(regions))
	keys, err := prefixKeys(cfg, "cuttlefish", opt.tuning(), 1, regions, points)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, want) {
		t.Errorf("ramp's keys at %v are\n%q\nwant\n%q", points, keys, want)
	}
	chain, _ := memoKeysAndPoints(t, e, "cuttlefish", opt, 1)
	for i, k := range points {
		if chain[k] != keys[i] {
			t.Errorf("the whole chain keys boundary %d as %s, the points as %s", k, chain[k], keys[i])
		}
	}
}

// divergenceEdit is one edit of a memoized program, named for the test
// log.
type divergenceEdit struct {
	label string
	def   scenario.Definition
}

// divergenceEdits are the spec edits a memoized program most plausibly
// sees next: change or re-Repeat any phase, append a phase, drop the last
// one, rename the program, or run one more iteration.
func divergenceEdits(base scenario.Definition) []divergenceEdit {
	var edits []divergenceEdit
	edit := func(label string, f func(d *scenario.Definition)) {
		d := base
		d.Phases = append([]scenario.PhaseDef(nil), base.Phases...)
		f(&d)
		edits = append(edits, divergenceEdit{label, d})
	}
	for j := range base.Phases {
		edit(fmt.Sprintf("change-%d", j), func(d *scenario.Definition) { d.Phases[j].MissPerInstr += 0.01 })
		edit(fmt.Sprintf("repeat+1-%d", j), func(d *scenario.Definition) { d.Phases[j].Repeat++ })
	}
	edit("append", func(d *scenario.Definition) {
		d.Phases = append(d.Phases, scenario.PhaseDef{Name: "appended", Instructions: 1e11, MissPerInstr: 0.03, IPC: 1.5})
	})
	if len(base.Phases) > 1 {
		edit("drop-last", func(d *scenario.Definition) { d.Phases = d.Phases[:len(d.Phases)-1] })
	}
	edit("rename", func(d *scenario.Definition) { d.Name += "-renamed" })
	edit("iterations+1", func(d *scenario.Definition) { d.Iterations++ })
	return edits
}

// sharedPrefix is the number of regions two key chains agree on.
func sharedPrefix(a, b []string) int {
	n := 0
	for n+1 < min(len(a), len(b)) && a[n+1] == b[n+1] {
		n++
	}
	return n
}

// TestMemoResumesAtDivergence memoizes each of four built-in programs,
// then runs every edit of divergenceEdits against only those snapshots.
// Each edited run must resume exactly where its key chain leaves the
// stored program's — so both snapshot that boundary — and report a fresh
// run's bits; an Iterations edit shares no region and resumes nowhere.
func TestMemoResumesAtDivergence(t *testing.T) {
	const gov = "cuttlefish"
	for _, name := range []string{"bursty", "ramp", "multiphase", "compute-bound"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := scenario.Get(name)
			if !ok || e.Def == nil {
				t.Fatalf("scenario %s is not a registered phase program", name)
			}
			opt := memoTestOptions()
			opt.Governor = gov
			g, err := governor.New(gov, opt.tuning())
			if err != nil {
				t.Fatal(err)
			}
			stored := memo.New(0, nil)
			opt.Memo = stored
			if _, err := RunEntry(e, gov, opt, 1); err != nil {
				t.Fatal(err)
			}
			baseKeys, points := memoKeysAndPoints(t, e, gov, opt, 1)
			snaps := map[string][]byte{}
			for _, k := range points {
				body, ok := stored.Get(baseKeys[k])
				if !ok {
					t.Fatalf("%s stored no snapshot at boundary %d", name, k)
				}
				snaps[baseKeys[k]] = body
			}

			for _, ed := range divergenceEdits(*e.Def) {
				t.Run(ed.label, func(t *testing.T) {
					o := memoTestOptions()
					o.Governor = gov
					o.ScenarioDef = &ed.def
					edited, err := resolveWorkload(o)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := RunEntry(edited, gov, o, 1)
					if err != nil {
						t.Fatal(err)
					}
					o.Memo = memo.New(0, nil)
					for k, body := range snaps {
						o.Memo.Put(k, body)
					}
					rs := &memo.RunStats{}
					o.MemoStats = rs
					j := simJob{entry: edited, gov: g, seed: 1}
					p := newMemoPlan(j, o)
					editedKeys, _ := memoKeysAndPoints(t, edited, gov, o, 1)
					want := sharedPrefix(baseKeys, editedKeys)
					if ed.label == "iterations+1" && want != 0 {
						t.Fatalf("an Iterations edit shares %d regions with the stored program", want)
					}
					if p.resumeK != want {
						t.Errorf("resumes at boundary %d, want %d, where the key chains diverge", p.resumeK, want)
					}
					res, err := p.run(j, o)
					if err != nil {
						t.Fatal(err)
					}
					requireBitEqual(t, "resumed vs fresh", res, fresh)
					if v := rs.View(); (v.PrefixHits == 1) != (want > 0) {
						t.Errorf("stats = %+v, want a prefix hit iff the chains share a region (%d)", v, want)
					}
				})
			}
		})
	}
}

// FuzzDecodeContainer feeds arbitrary bytes to decodeContainer, which
// reads every memo record's body: it returns an error or the container's
// three parts, never panics, and a decoded container re-encodes to its
// own bytes. Seeds: every snapshot of a real bursty run, each one cut
// short, and a bare magic.
func FuzzDecodeContainer(f *testing.F) {
	e, ok := scenario.Get("bursty")
	if !ok {
		f.Fatal("scenario bursty is not registered")
	}
	opt := memoTestOptions()
	tier := memo.New(0, nil)
	opt.Memo = tier
	if _, err := RunEntry(e, "cuttlefish", opt, 1); err != nil {
		f.Fatal(err)
	}
	keys, points := memoKeysAndPoints(f, e, "cuttlefish", opt, 1)
	for _, k := range points {
		body, ok := tier.Get(keys[k])
		if !ok {
			f.Fatalf("bursty run stored no snapshot at boundary %d", k)
		}
		f.Add(body)
		f.Add(body[:len(body)-9])
	}
	f.Add([]byte(memoContainerMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		machineSnap, govBlob, cp, err := decodeContainer(raw)
		if err != nil {
			return
		}
		if again := encodeContainer(machineSnap, govBlob, cp); !bytes.Equal(again, raw) {
			t.Fatal("a decoded container does not re-encode to its own bytes")
		}
	})
}

// TestWriteAroundHoldsOnlyResumedSnapshots replays cfbench's memo-resume
// traffic for every governor through one disk-backed tier: a population
// run of the nine-phase program, then tail edits that each resume at the
// tail's start. Every snapshot goes to disk only, and the first resume
// of each governor promotes the one snapshot the later ones read from
// memory, so the LRU ends holding exactly those. Every edit's report is
// byte-identical to a run with no tier.
func TestWriteAroundHoldsOnlyResumedSnapshots(t *testing.T) {
	const edits = 3
	disk := openStore(t, t.TempDir())
	tier := memo.New(0, disk)
	opt := DefaultOptions()
	opt.Scale, opt.Reps, opt.Seed, opt.WarmupSec = 0.05, 1, 7, 0.25
	program := func(tailRemote float64) *scenario.Definition {
		d := tailProgram(1e11)
		d.Phases[8].RemoteFrac = tailRemote
		return d
	}
	stored := 0
	for promoted, gov := range governor.Names() {
		opt.Governor, opt.Memo, opt.ScenarioDef = gov, tier, program(0)
		rs := &memo.RunStats{}
		opt.MemoStats = rs
		runReportBytes(t, opt, "")
		stored += rs.View().SnapshotsStored
		if info := tier.Info(); info.Entries != promoted || info.Stored != uint64(stored) || info.Disk.Entries != stored {
			t.Fatalf("%s population: %d snapshots in memory, %d stored, %d on disk; want %d, %d and %d",
				gov, info.Entries, info.Stored, info.Disk.Entries, promoted, stored, stored)
		}
		for i := 1; i <= edits; i++ {
			opt.ScenarioDef, opt.Memo, opt.MemoStats = program(0.1*float64(i)), nil, nil
			fresh := runReportBytes(t, opt, "")
			rs := &memo.RunStats{}
			opt.Memo, opt.MemoStats = tier, rs
			if got := runReportBytes(t, opt, ""); !bytes.Equal(got, fresh) {
				t.Errorf("%s edit %d: resumed report differs from a run with no tier", gov, i)
			}
			if v := rs.View(); v.PrefixHits != 1 || v.SnapshotsStored != 1 {
				t.Fatalf("%s edit %d: stats = %+v, want one resume that stores its end snapshot", gov, i, v)
			}
			stored++
		}
	}
	n := len(governor.Names())
	info := tier.Info()
	if info.Entries != n || info.Evicted != 0 || info.Stored != uint64(stored) || info.Disk.Entries != stored {
		t.Errorf("after the edits: %d snapshots in memory (%d evicted), %d stored, %d on disk; want %d, none, %d and %d",
			info.Entries, info.Evicted, info.Stored, info.Disk.Entries, n, stored, stored)
	}
	if info.Disk.Hits != uint64(n) || info.PrefixHits != uint64(n*edits) {
		t.Errorf("%d disk reads for %d resumes, want one per governor (%d): later resumes read the promoted snapshot",
			info.Disk.Hits, info.PrefixHits, n)
	}
}

// TestMemoSpansTimeSnapshotsApart: a memo run's simulate span has one
// memo_snapshot-<k> child per snapshot it takes, named by its boundary,
// and one memo_store child around the tier writes. A run that resumes
// at its program end takes no snapshot and still records memo_store.
func TestMemoSpansTimeSnapshotsApart(t *testing.T) {
	e := burstyEntry(t)
	const gov = "cuttlefish"
	opt := memoTestOptions()
	opt.Memo = memo.New(0, nil)
	_, points := memoKeysAndPoints(t, e, gov, opt, 1)
	children := func() []string {
		tr := obs.NewTrace("")
		o := opt
		o.Span = tr.Root()
		if _, err := RunEntry(e, gov, o, 1); err != nil {
			t.Fatal(err)
		}
		spans := tr.Export().Spans
		i := slices.IndexFunc(spans, func(sp obs.SpanExport) bool { return sp.Name == "simulate" })
		if i < 0 {
			t.Fatal("the run recorded no simulate span")
		}
		var names []string
		for _, sp := range spans {
			if sp.Parent == spans[i].ID {
				names = append(names, sp.Name)
			}
		}
		return names
	}
	var want []string
	for _, k := range points {
		want = append(want, fmt.Sprintf("memo_snapshot-%d", k))
	}
	if got := children(); !slices.Equal(got, append(want, "memo_store")) {
		t.Errorf("cold run's simulate children = %v, want %v and memo_store", got, want)
	}
	if got := children(); !slices.Equal(got, []string{"memo_store"}) {
		t.Errorf("resumed run's simulate children = %v, want only memo_store", got)
	}
}
