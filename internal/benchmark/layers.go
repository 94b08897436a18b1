package benchmark

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

// perOp times fn in seven batches of n calls and returns the median
// seconds per call.
func perOp(n int, fn func()) float64 {
	var batches []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, time.Since(t0).Seconds()/float64(n))
	}
	return median(batches)
}

// layerInputs are the workload's own inputs for the direct timings: the
// distinct requests among the first 64 of its measured stream.
func layerInputs(p *plan) []*request {
	seen := make(map[string]bool)
	var in []*request
	for i := 0; i < 64; i++ {
		if r := p.next(i); !seen[r.hash] {
			seen[r.hash] = true
			in = append(in, r)
		}
	}
	return in
}

// directLayers times each layer's public functions on the workload's
// inputs. storeDir is the measured server's populated result store; dir
// is scratch space.
func directLayers(ctx context.Context, p *plan, storeDir, dir string) (map[string]float64, error) {
	in := layerInputs(p)
	out := make(map[string]float64)

	specs := make([]service.RunSpec, len(in))
	for i, r := range in {
		specs[i] = r.spec
	}
	k := 0
	out["service.spec_hash_us"] = perOp(len(specs), func() {
		n := specs[k%len(specs)].Normalized()
		if n.Validate() == nil {
			_ = n.Hash()
		}
		k++
	}) * 1e6
	out["scenario.build_ms"] = perOp(len(specs), func() {
		n := specs[k%len(specs)].Normalized()
		_, _ = buildSource(n, n.Scale) // inputs already validated by cfserve
		k++
	}) * 1e3

	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	res, err := svc.Submit(ctx, in[0].spec)
	if err != nil {
		return nil, fmt.Errorf("in-process submit: %w", err)
	}
	out["service.submit_hit_us"] = perOp(200, func() { _, _ = svc.Submit(ctx, in[0].spec) }) * 1e6

	snap, err := engineLayers(in, out)
	if err != nil {
		return nil, err
	}
	if err := tierLayers(dir, storeDir, res.Body, snap, out); err != nil {
		return nil, err
	}
	return out, nil
}

// buildSource instantiates a normalized spec's workload source at scale.
func buildSource(n service.RunSpec, scale float64) (workload.Source, error) {
	p := scenario.Params{Cores: n.Cores, Scale: scale, Seed: n.Seed, Model: n.Model}
	if n.ScenarioDef != nil {
		return n.ScenarioDef.Build(p)
	}
	name := n.Benchmark
	if name == "" {
		name = n.Scenario
	}
	e, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return e.Build(p)
}

// engine boots the paper's machine with gov attached, runs spec's
// workload at scale 1 (long enough that the measured quanta stay inside
// the program) and steps it past the daemon warm-up.
func engine(spec service.RunSpec, gov string) (*machine.Machine, *governor.Attachment, error) {
	n := spec.Normalized()
	cfg := machine.DefaultConfig()
	cfg.Cores = n.Cores
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := governor.New(gov, governor.Tuning{TinvSec: n.TinvSec, WarmupSec: n.WarmupSec})
	if err != nil {
		return nil, nil, err
	}
	att, err := g.Attach(m)
	if err != nil {
		return nil, nil, err
	}
	src, err := buildSource(n, 1)
	if err != nil {
		return nil, nil, err
	}
	m.SetSource(src)
	for m.Now() < n.WarmupSec+0.05 {
		m.Step()
	}
	return m, att, nil
}

// engineLayers times the engine, snapshots and governors on up to eight
// inputs and reports medians across them. It returns the first input's
// encoded snapshot: the payload the memo tier stores.
func engineLayers(in []*request, out map[string]float64) ([]byte, error) {
	var step, allocs, enc, dec, restore, size, tick []float64
	var first []byte
	for _, r := range in[:min(8, len(in))] {
		m, att, err := engine(r.spec, r.spec.Normalized().Governor)
		if err != nil {
			return nil, err
		}
		step = append(step, perOp(50, m.Step)*1e9)
		allocs = append(allocs, testing.AllocsPerRun(100, m.Step))
		var raw []byte
		enc = append(enc, perOp(20, func() { raw = m.Snapshot().Encode() })*1e6)
		size = append(size, float64(len(raw)))
		if first == nil {
			first = raw
		}
		var snap *machine.Snapshot
		dec = append(dec, perOp(20, func() { snap, _ = machine.DecodeSnapshot(raw) })*1e6)
		twin, twinAtt, err := engine(r.spec, r.spec.Normalized().Governor)
		if err != nil {
			return nil, err
		}
		restore = append(restore, perOp(20, func() { _ = twin.Restore(snap) })*1e6)
		_ = twinAtt.Detach()
		_ = att.Detach()

		// One daemon activation over a fresh Tinv of counters.
		cm, catt, err := engine(r.spec, governor.Cuttlefish)
		if err != nil {
			return nil, err
		}
		quanta := int(r.spec.Normalized().TinvSec / cm.Config().QuantumSec)
		var ticks []float64
		for t := 0; t < 20; t++ {
			for q := 0; q < quanta; q++ {
				cm.Step()
			}
			t0 := time.Now()
			catt.Daemon().Tick(cm.Now())
			ticks = append(ticks, time.Since(t0).Seconds()*1e6)
		}
		tick = append(tick, median(ticks))
		_ = catt.Detach()
		m.Close()
		twin.Close()
		cm.Close()
	}
	out["machine.step_ns"] = median(step)
	out["machine.allocs_per_quantum"] = median(allocs)
	out["machine.snapshot_encode_us"] = median(enc)
	out["machine.snapshot_decode_us"] = median(dec)
	out["machine.restore_us"] = median(restore)
	out["machine.snapshot_bytes"] = median(size)
	out["governor.tick_us"] = median(tick)

	var attach []float64
	for _, name := range governor.Names() {
		for rep := 0; rep < 10; rep++ {
			m, err := machine.New(machine.DefaultConfig())
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			g, err := governor.New(name, governor.Tuning{})
			if err != nil {
				return nil, err
			}
			att, err := g.Attach(m)
			if err != nil {
				return nil, err
			}
			if err := att.Detach(); err != nil {
				return nil, err
			}
			attach = append(attach, time.Since(t0).Seconds()*1e6)
			m.Close()
		}
	}
	out["governor.attach_detach_us"] = median(attach)
	return first, nil
}

// tierLayers times the result store and the disk-backed memo tier on
// fresh directories, and reopening the measured server's store.
func tierLayers(dir, storeDir string, body, snap []byte, out map[string]float64) error {
	const n = 20 // calls per batch; perOp runs seven batches
	keys := make([]string, 7*n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprint("cfbench-key-", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	scratch := func(name string) (*store.Store, error) {
		d, err := os.MkdirTemp(dir, name)
		if err != nil {
			return nil, err
		}
		return store.Open(d, 0)
	}
	st, err := scratch("store-")
	if err != nil {
		return err
	}
	i := 0
	out["store.put_us"] = perOp(n, func() { _ = st.Put(keys[i%len(keys)], body); i++ }) * 1e6
	out["store.get_us"] = perOp(n, func() { st.Get(keys[i%len(keys)]); i++ }) * 1e6

	disk, err := scratch("memo-")
	if err != nil {
		return err
	}
	tier := memo.New(0, disk)
	out["memo.put_us"] = perOp(n, func() { tier.Put(keys[i%len(keys)], snap); i++ }) * 1e6
	// A fresh tier over the same directory: every Get misses memory and
	// reads (and promotes) the snapshot from disk.
	reopened, err := store.Open(disk.Dir(), 0)
	if err != nil {
		return err
	}
	cold := memo.New(0, reopened)
	out["memo.get_us"] = perOp(n, func() { cold.Get(keys[i%len(keys)]); i++ }) * 1e6

	var opens []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if _, err := store.Open(storeDir, 0); err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
	}
	out["store.open_s"] = median(opens)
	return nil
}
