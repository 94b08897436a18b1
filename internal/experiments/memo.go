package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// maxSnapshotsPerRun caps how many region boundaries one run snapshots.
// Snapshots cost encoding time and cache budget; past a few dozen per run
// the marginal prefix they could save is a sliver of the program.
const maxSnapshotsPerRun = 32

// memoContainerMagic versions the snapshot container layout (the machine
// snapshot inside carries its own magic and checksum).
const memoContainerMagic = "cfmemo1\n"

// prefixKeys derives the snapshot key chain for one run: keys[k] commits
// to everything the simulation's future depends on after k completed
// regions. The base digest covers the machine configuration, the
// governor name and tuning, and the seed; each link then absorbs one
// region's exact values (IEEE-754 bit patterns, so "almost equal"
// programs never collide). Two runs agree on keys[k] iff they are
// bit-identical through their first k regions.
//
// The simulation deadline is deliberately not hashed: it only bounds the
// batch that would end a run, so the state at boundary k is the same
// under any deadline the run outlived to reach k. Hashing it would
// re-key every snapshot of a program whenever an edit to its tail moved
// Definition.EstimateSeconds.
func prefixKeys(cfg machine.Config, govName string, t governor.Tuning, seed int64, regions []sched.Region) ([]string, error) {
	keyCfg := cfg
	// Profile is pure wall-clock instrumentation with no effect on
	// simulated state: snapshots are shareable across profiled and
	// unprofiled runs, so it must not fork the key chain.
	keyCfg.Profile = false
	cfgJSON, err := json.Marshal(keyCfg)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	var b [8]byte
	f64 := func(v float64) {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	h.Write([]byte("cuttlefish-memo-base1\n"))
	h.Write(cfgJSON)
	h.Write([]byte{0})
	h.Write([]byte(govName))
	h.Write([]byte{0})
	f64(t.TinvSec)
	f64(t.WarmupSec)
	h.Write([]byte{byte(t.CF), byte(t.UF), t.DDCMLevel})
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	prev := h.Sum(nil)

	keys := make([]string, len(regions)+1)
	keys[0] = hex.EncodeToString(prev)
	for i, r := range regions {
		hh := sha256.New()
		hh.Write(prev)
		var rb [7 * 8]byte
		binary.BigEndian.PutUint64(rb[0:], math.Float64bits(r.Seg.Instructions))
		binary.BigEndian.PutUint64(rb[8:], math.Float64bits(r.Seg.MissPerInstr))
		binary.BigEndian.PutUint64(rb[16:], math.Float64bits(r.Seg.IPC))
		binary.BigEndian.PutUint64(rb[24:], math.Float64bits(r.Seg.RemoteFrac))
		binary.BigEndian.PutUint64(rb[32:], math.Float64bits(r.Seg.Exposure))
		binary.BigEndian.PutUint64(rb[40:], uint64(r.Chunks))
		binary.BigEndian.PutUint64(rb[48:], math.Float64bits(r.JitterFrac))
		hh.Write(rb[:])
		prev = hh.Sum(nil)
		keys[i+1] = hex.EncodeToString(prev)
	}
	return keys, nil
}

// snapshotPoints picks which region boundaries a run snapshots: every
// phase transition (where a diverging re-run most plausibly splits from
// this one), the program end (so a byte-identical re-run skips simulation
// entirely and an iterations-extended one resumes at the old end), and —
// when the budget allows — an even stride through single-phase stretches.
// Programs whose phase transitions alone exceed the budget keep an evenly
// thinned subset.
func snapshotPoints(phases []int) map[int]bool {
	total := len(phases)
	pts := map[int]bool{total: true}
	var cand []int
	for k := 1; k < total; k++ {
		if phases[k] != phases[k-1] {
			cand = append(cand, k)
		}
	}
	if len(cand) <= maxSnapshotsPerRun-1 {
		for _, k := range cand {
			pts[k] = true
		}
		if need := maxSnapshotsPerRun - len(pts); need > 0 && total > 1 {
			stride := (total + need - 1) / need
			if stride < 1 {
				stride = 1
			}
			for k := stride; k < total && len(pts) < maxSnapshotsPerRun; k += stride {
				pts[k] = true
			}
		}
	} else {
		step := (len(cand) + maxSnapshotsPerRun - 2) / (maxSnapshotsPerRun - 1)
		for i := 0; i < len(cand); i += step {
			pts[cand[i]] = true
		}
	}
	return pts
}

// encodeContainer packs one resumable boundary: the machine snapshot (its
// own checksummed encoding), the governor's opaque state blob, and the
// work-sharing checkpoint.
func encodeContainer(machineSnap, govBlob []byte, cp sched.WSCheckpoint) []byte {
	b := make([]byte, 0, len(memoContainerMagic)+4+len(machineSnap)+4+len(govBlob)+24)
	b = append(b, memoContainerMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(machineSnap)))
	b = append(b, machineSnap...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(govBlob)))
	b = append(b, govBlob...)
	b = binary.BigEndian.AppendUint64(b, uint64(cp.RegionsDone))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cp.OpenAt))
	b = binary.BigEndian.AppendUint64(b, uint64(cp.Chunks))
	return b
}

// decodeContainer unpacks encodeContainer's layout. Any defect is an
// error, which the memo path treats as a miss.
func decodeContainer(raw []byte) (machineSnap, govBlob []byte, cp sched.WSCheckpoint, err error) {
	bad := func(msg string) ([]byte, []byte, sched.WSCheckpoint, error) {
		return nil, nil, sched.WSCheckpoint{}, fmt.Errorf("experiments: snapshot container %s", msg)
	}
	if len(raw) < len(memoContainerMagic) || string(raw[:len(memoContainerMagic)]) != memoContainerMagic {
		return bad("has a bad magic")
	}
	raw = raw[len(memoContainerMagic):]
	take := func(n int) []byte {
		if len(raw) < n {
			return nil
		}
		p := raw[:n]
		raw = raw[n:]
		return p
	}
	lenField := take(4)
	if lenField == nil {
		return bad("is truncated")
	}
	machineSnap = take(int(binary.BigEndian.Uint32(lenField)))
	if machineSnap == nil {
		return bad("is truncated")
	}
	lenField = take(4)
	if lenField == nil {
		return bad("is truncated")
	}
	govBlob = take(int(binary.BigEndian.Uint32(lenField)))
	if govBlob == nil {
		return bad("is truncated")
	}
	tail := take(24)
	if tail == nil {
		return bad("is truncated")
	}
	if len(raw) != 0 {
		return bad("has trailing bytes")
	}
	cp.RegionsDone = int(binary.BigEndian.Uint64(tail[0:]))
	cp.OpenAt = math.Float64frombits(binary.BigEndian.Uint64(tail[8:]))
	cp.Chunks = int(binary.BigEndian.Uint64(tail[16:]))
	if cp.RegionsDone < 0 || cp.Chunks < 0 {
		return bad("has negative counters")
	}
	return machineSnap, govBlob, cp, nil
}

// memoPlan is one run's prefix-resume plan: the compiled region schedule
// the run executes, its snapshot key chain, the boundaries it snapshots
// and the longest memoized prefix the probe found. Any defect in a
// cached snapshot — truncation, checksum failure, configuration
// mismatch — falls back to a fresh full run, whose results are
// byte-identical to never having had a cache.
type memoPlan struct {
	tier      *memo.Tier
	regions   []sched.Region
	keys      []string
	points    map[int]bool
	resumeK   int    // regions the probed snapshot completed; 0 = none
	container []byte // the probed snapshot
	// ws, resumedAt and pack describe the latest simulate call: its
	// source, the simulated time it restored to and the snapshots it
	// took, which simulate stores as one pack when the run ends.
	ws        *sched.WorkSharing
	resumedAt float64
	pack      []memo.Entry
}

// newMemoPlan compiles j's region schedule and probes the tier for its
// longest memoized prefix. It returns nil when the workload has no
// deterministic region schedule (task-DAG decompositions, whose stealing
// schedule is decided while they run), sending run to the plain path.
func newMemoPlan(j simJob, opt Options) *memoPlan {
	cfg := opt.machineConfig()
	regions, phases, err := j.entry.Def.CompiledRegions(scenario.Params{
		Cores: cfg.Cores, Scale: opt.Scale, Seed: j.seed, Model: opt.Model,
	})
	if err != nil {
		return nil
	}
	keys, err := prefixKeys(cfg, j.gov.Name(), opt.tuning(), j.seed, regions)
	if err != nil {
		return nil
	}
	p := &memoPlan{tier: opt.Memo, regions: regions, keys: keys, points: snapshotPoints(phases)}
	// Probe from the whole program down. The common warm cases
	// (identical re-run, extended program) hit on the first few probes; a
	// cold run walks the chain once against an in-memory map.
	probe := opt.Span.Child("memo_probe")
	for k := len(regions); k >= 1; k-- {
		if body, ok := p.tier.Get(keys[k]); ok {
			p.resumeK, p.container = k, body
			break
		}
	}
	probe.Set("resume_k", p.resumeK)
	probe.Set("total_regions", len(regions))
	probe.End()
	return p
}

// run simulates the job from the probed prefix, or from boot when there
// is none or its restore fails, and records the memo activity.
func (p *memoPlan) run(j simJob, opt Options) (RunResult, error) {
	var res RunResult
	resumed := false
	if p.resumeK > 0 {
		// A failed restore discards the tainted machine; fall through to
		// a clean from-boot run.
		if r, err := simulate(j, opt, p, p.resumeK); err == nil {
			res, resumed = r, true
		}
	}
	if !resumed {
		var err error
		if res, err = simulate(j, opt, p, 0); err != nil {
			return RunResult{}, err
		}
	}
	quantum := opt.machineConfig().QuantumSec
	saved := int64(math.Round(p.resumedAt / quantum))
	if resumed {
		p.tier.RecordResume(saved)
	}
	if opt.MemoStats != nil {
		opt.MemoStats.Record(resumed, saved, int64(math.Round(res.Seconds/quantum)), len(p.pack))
	}
	return res, nil
}

// source builds the run's work-sharing source over the compiled
// schedule. For fromK > 0 it first restores the probed snapshot into the
// freshly booted machine and attached governor, and resumes the schedule
// at its checkpoint.
func (p *memoPlan) source(m *machine.Machine, att *governor.Attachment, opt Options, seed int64, fromK int) (workload.Source, error) {
	p.resumedAt, p.pack = 0, nil
	gen := func(s int) (sched.Region, bool) {
		if s >= len(p.regions) {
			return sched.Region{}, false
		}
		return p.regions[s], true
	}
	cores := m.Config().Cores
	if fromK == 0 {
		p.ws = sched.NewWorkSharing(cores, gen, seed)
		return p.ws, nil
	}
	restore := opt.Span.Child("memo_restore")
	msnap, govBlob, cp, err := decodeContainer(p.container)
	if err != nil {
		return nil, err
	}
	if cp.RegionsDone != fromK {
		return nil, fmt.Errorf("experiments: snapshot records %d regions, key position says %d", cp.RegionsDone, fromK)
	}
	snap, err := machine.DecodeSnapshot(msnap)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(snap); err != nil {
		return nil, err
	}
	if err := att.StateRestore(govBlob); err != nil {
		return nil, err
	}
	restore.Set("from_k", fromK)
	restore.End()
	p.resumedAt = m.Now()
	// The prefix-restore marker: a resumed timeline legitimately starts
	// here rather than at boot, so the marker is what lets a reader line
	// it up against a fresh run's recording.
	opt.Timeline.AddEvent(timeline.Event{T: m.Now(), Kind: timeline.KindMemoRestore, From: fromK})
	p.ws = sched.NewWorkSharingAt(cores, gen, seed, cp)
	return p.ws, nil
}

// snapshot takes the resumable state at region boundary n into the
// run's pack when the plan selects it. It returns false once
// snapshotting must stop (the governor could not export its state, e.g.
// a latched daemon error).
func (p *memoPlan) snapshot(m *machine.Machine, att *governor.Attachment, n int) bool {
	if !p.points[n] {
		return true
	}
	cp, ok := p.ws.Checkpoint()
	if !ok || cp.RegionsDone != n {
		return true
	}
	govBlob, err := att.StateSnapshot()
	if err != nil {
		return false
	}
	p.pack = append(p.pack, memo.Entry{Key: p.keys[n], Body: encodeContainer(m.Snapshot().Encode(), govBlob, cp)})
	return true
}
