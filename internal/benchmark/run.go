package benchmark

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// Options configures one workload run.
type Options struct {
	Server string // cfserve binary
	// Dir holds the run's stores, snapshot directories and cfserve logs.
	// Stores and snapshots are always removed; the logs stay only when
	// the run found a failure.
	Dir          string
	Seed         int64
	Window       time.Duration // measured window of the untraced pass
	Warmup       time.Duration // discarded before every window
	TracedWindow time.Duration // measured window of the traced pass
	// Trace selects the per-layer pass (untraced counters, then a traced
	// server, then direct layer calls) instead of the end-to-end pass.
	Trace bool
}

// An end-to-end run starts cfserve minSetups times, and starts that finish
// quickly repeat, up to maxSetups, until together they have taken
// setupBudget: the median of a few tens of milliseconds-long starts would
// otherwise move with a single slow one.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// windowSlices is how many parts a measured window is cut into. After
// each, a probe burst a twentieth as long as the slice runs with cfserve
// paused, so the probe samples the machine's speed across the whole
// window.
const windowSlices = 20

// Result is one workload run.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the BENCHMARK.json metrics of this pass: EndToEnd
	// untraced, PerLayer traced.
	Metrics map[string]Value `json:"metrics"`
	// Detail is reported alongside but not gated: latency per serving
	// tier (absent when the workload has no such requests), sample
	// counts, the end-to-end metrics as measured before normalize, the CPU
	// availability they were normalized by, and the traced pass's
	// attribution check.
	Detail map[string]Value `json:"detail"`
	Notes  []string         `json:"notes,omitempty"`
}

// Run executes one workload against fresh cfserve processes.
func Run(ctx context.Context, w Workload, o Options) (res *Result, err error) {
	data := filepath.Join(o.Dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err == nil && res.Failed == 0 {
			err = os.RemoveAll(o.Dir)
		} else {
			os.RemoveAll(data) // keep only cfserve.log
		}
	}()
	p := w.plan(o.Seed)
	c := newClient(min(clients, runtime.GOMAXPROCS(0)))
	res = &Result{Workload: w.Name, Seed: o.Seed, Trace: o.Trace,
		Metrics: make(map[string]Value), Detail: make(map[string]Value)}

	cur := &cursor{next: p.next}
	plain, err := runPass(ctx, c, p, o, cur, nil)
	if err != nil {
		return nil, err
	}
	var traced *pass
	var direct map[string]float64
	if o.Trace {
		if traced, err = runPass(ctx, c, p, o, cur, plain); err != nil {
			return nil, err
		}
		if direct, err = directLayers(ctx, p, filepath.Join(plain.dir, "store"), data); err != nil {
			return nil, fmt.Errorf("direct layer timings: %w", err)
		}
	}

	e2e, out := endToEnd(plain), res.Metrics
	if o.Trace {
		out = res.Detail
		layers := perLayer(plain, traced, direct)
		for _, m := range PerLayer {
			res.Metrics[m.Name] = Value{layers[m.Name], m.Unit}
		}
		res.Detail["traced_requests"] = Value{float64(len(traced.spans)), "count"}
		res.Detail["attribution_gap_frac"] = Value{attributionGap(traced.spans), "fraction"}
		if cpu := layers["client.cpu_frac"]; cpu > 0.5 {
			res.Notes = append(res.Notes, fmt.Sprintf("generator used %.2f CPU (> 0.5): it competes with cfserve for the CPUs", cpu))
		}
	}
	// Set-up happens before the window, and the machine can change between
	// the two, so each is normalized by what was measured around it.
	avail, sp := plain.windowCPU.availability(), plain.speed.factor()
	for _, m := range EndToEnd {
		v := normalize(m, e2e[m.Name], avail, sp)
		if m.Name == "setup_s" {
			v = normalize(m, e2e[m.Name], plain.setupCPU.availability(), plain.setupSpeed.factor())
		}
		res.Detail[m.Name+"_measured"] = Value{e2e[m.Name], m.Unit}
		out[m.Name] = Value{v, m.Unit}
	}
	res.Detail["rss_samples"] = Value{float64(len(plain.rssMiB)), "count"}
	res.Detail["cpu_availability"] = Value{avail, "fraction"}
	res.Detail["speed"] = Value{sp, "fraction"}
	res.Detail["setup_cpu_availability"] = Value{plain.setupCPU.availability(), "fraction"}
	res.Detail["setup_speed"] = Value{plain.setupSpeed.factor(), "fraction"}
	for name, v := range tierLatencies(plain.window) {
		res.Detail[name] = v
	}

	if err := differential(ctx, c, plain.window); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = c.attempted.Load(), c.failed.Load()
	res.Failures = c.failures
	if res.Failed > 0 {
		res.Notes = append(res.Notes, "cfserve log kept at "+filepath.Join(o.Dir, "cfserve.log"))
	}
	return res, nil
}

// pass is one measured server lifetime.
type pass struct {
	setupSec   []float64
	setupCPU   hostCPU // the machine's CPU time during the set-ups
	setupSpeed speed   // a probe burst after the set-ups
	window     []sample
	windowSec  float64   // the window's load time, probe bursts excluded
	windowCPU  hostCPU   // the machine's CPU time during the load
	speed      speed     // the probe bursts between the window's slices
	rssMiB     []float64 // cfserve's resident set at the plan's request counts
	serverCPU  float64   // cfserve CPU seconds in the window
	clientCPU  float64   // generator CPU seconds driving the window
	statsStart service.Stats
	statsEnd   service.Stats
	cacheStart service.CacheInfo
	cacheEnd   service.CacheInfo
	dir        string      // the measured server's store and snapshot directories
	spans      []tracedReq // traced: the window's requests
}

// runPass measures one server lifetime. The untraced pass (prev nil)
// populates fresh directories with the plan's population, then starts
// the measured cfserve on them: repeatedly on an end-to-end run, keeping
// the last server, and once on a per-layer run. The traced pass starts a
// traced cfserve once on prev's directories. Both warm up and measure one
// window of the request stream cur, which the traced pass continues from
// where the untraced pass stopped.
func runPass(ctx context.Context, c *client, p *plan, o Options, cur *cursor, prev *pass) (d *pass, err error) {
	traced := prev != nil
	c.traced = traced
	window := o.Window
	if traced {
		window = o.TracedWindow
	}
	logPath := filepath.Join(o.Dir, "cfserve.log")
	d = &pass{}
	if traced {
		d.dir = prev.dir
	} else {
		d.dir = filepath.Join(o.Dir, "data")
		if err := populate(ctx, c, p, o.Server, logPath, d.dir); err != nil {
			return nil, err
		}
	}
	var srv *server
	defer func() {
		if srv != nil {
			if serr := srv.stop(); err == nil {
				err = serr
			}
		}
		c.http.CloseIdleConnections()
	}()
	var spent time.Duration
	for k := 0; k == 0 || !o.Trace && k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = startServer(ctx, o.Server, logPath, serverArgs(d.dir, p.cache, traced)...); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		h1, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		spent += took
		d.setupSec = append(d.setupSec, took.Seconds())
		d.setupCPU = d.setupCPU.add(h1.since(h0))
	}
	burst := window / windowSlices / 20
	if err := srv.paused(func() { d.setupSpeed.add(probe(2 * burst)) }); err != nil {
		return nil, err
	}
	rss := &rssSampler{srv: srv, step: p.rssStep}
	if !traced {
		cur.at = rss.at
		defer func() { cur.at = nil }()
	}

	if _, err := c.drive(ctx, srv.base, cur, time.Now().Add(o.Warmup)); err != nil {
		return nil, err
	}
	if err := c.getJSON(ctx, srv.base+"/v1/stats", &d.statsStart); err != nil {
		return nil, err
	}
	if err := c.getJSON(ctx, srv.base+"/v1/cache", &d.cacheStart); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	for k := 0; k < windowSlices; k++ {
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		self0, t0 := selfCPUSeconds(), time.Now()
		part, err := c.drive(ctx, srv.base, cur, t0.Add(window/windowSlices))
		if err != nil {
			return nil, err
		}
		d.windowSec += time.Since(t0).Seconds()
		d.clientCPU += selfCPUSeconds() - self0
		h1, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		d.windowCPU = d.windowCPU.add(h1.since(h0))
		d.window = append(d.window, part...)
		if err := srv.paused(func() { d.speed.add(probe(burst)) }); err != nil {
			return nil, err
		}
	}
	if rss.err != nil {
		return nil, rss.err
	}
	d.rssMiB = rss.mib
	if len(d.rssMiB) == 0 { // a run too short to reach the first count
		v, err := srv.rssMiB()
		if err != nil {
			return nil, err
		}
		d.rssMiB = []float64{v}
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	d.serverCPU = cpu1 - cpu0
	if err := c.getJSON(ctx, srv.base+"/v1/stats", &d.statsEnd); err != nil {
		return nil, err
	}
	if err := c.getJSON(ctx, srv.base+"/v1/cache", &d.cacheEnd); err != nil {
		return nil, err
	}
	if traced {
		d.spans, err = c.collectTraces(ctx, srv.base, d.window)
	}
	return d, err
}

// serverArgs are cfserve's flags for a server whose result store and
// snapshot directory sit in dir; cache is its LRU size (0: the default).
func serverArgs(dir string, cache int, traced bool) []string {
	args := []string{"-store", filepath.Join(dir, "store"), "-memo-dir", filepath.Join(dir, "memo"),
		"-memo-max-bytes", strconv.Itoa(memoBudget)}
	if cache > 0 {
		args = append(args, "-cache", strconv.Itoa(cache))
	}
	if traced {
		return append(args, "-traces", "4096", "-profile", "-timelines", "256")
	}
	return append(args, "-traces", "0")
}

// populate sends the plan's population, if any, to a cfserve on dir
// and stops it, leaving the results and snapshots the measured servers
// start from. It is not timed: the population executes hundreds of cold
// runs (hot-zipf), whose speed cold-novel measures, and at ~7 s a
// repeated population would have taken a quarter of a run.
func populate(ctx context.Context, c *client, p *plan, bin, logPath, dir string) error {
	if len(p.population) == 0 {
		return nil
	}
	srv, err := startServer(ctx, bin, logPath, serverArgs(dir, 0, false)...)
	if err != nil {
		return err
	}
	samples, err := c.drive(ctx, srv.base, listCursor(p.population), time.Now().Add(time.Hour))
	if err == nil && len(samples) < len(p.population) {
		err = errors.New("population traffic failed")
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

// latencies returns the samples' latencies in ms, sorted.
func latencies(s []sample, keep func(sample) bool) []float64 {
	var v []float64
	for _, x := range s {
		if keep(x) {
			v = append(v, ms(x.lat.Nanoseconds()))
		}
	}
	sort.Float64s(v)
	return v
}

func endToEnd(d *pass) map[string]float64 {
	lat := latencies(d.window, func(sample) bool { return true })
	return map[string]float64{
		"throughput_rps": float64(len(d.window)) / d.windowSec,
		"latency_p50_ms": percentile(lat, 0.50),
		"rss_mb":         median(d.rssMiB),
		"setup_s":        median(d.setupSec),
	}
}

// tierLatencies reports the tail of all requests' latency, and latency per
// serving tier; "miss" means executed, cold or memo-resumed. A tier with no
// requests is left out.
func tierLatencies(window []sample) map[string]Value {
	lat := latencies(window, func(sample) bool { return true })
	out := map[string]Value{
		"requests":       {float64(len(window)), "count"},
		"latency_p90_ms": {percentile(lat, 0.90), "ms"},
		"latency_p99_ms": {percentile(lat, 0.99), "ms"},
	}
	for _, t := range []struct{ name, cache string }{
		{"miss", string(service.OutcomeMiss)}, {"lru_hit", string(service.OutcomeHit)}, {"disk_hit", string(service.OutcomeDisk)},
	} {
		lat := latencies(window, func(s sample) bool { return s.cache == t.cache })
		if len(lat) == 0 {
			continue
		}
		out[t.name+"_requests"] = Value{float64(len(lat)), "count"}
		out[t.name+"_p50_ms"] = Value{percentile(lat, 0.50), "ms"}
		out[t.name+"_p99_ms"] = Value{percentile(lat, 0.99), "ms"}
	}
	return out
}

// spanMetrics are the per-layer metrics read from span self times.
var spanMetrics = []string{
	"service.admission_ms", "service.cache_probe_ms", "store.probe_ms", "service.queue_wait_ms",
	"service.execute_self_ms", "memo.probe_ms", "memo.restore_ms", "machine.simulate_ms",
	"service.report_encode_ms", "service.request_self_ms", "service.unattributed_ms",
}

// perLayer assembles the per-layer metrics: serving outcomes, headers,
// service counters and process counters from the untraced window, span
// self times and engine profiles from the traced window, and the direct
// timings. A span metric is the median over the requests that passed
// through its layer, and 0 when none did (hot-zipf executes nothing).
func perLayer(plain, traced *pass, direct map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(PerLayer))
	for k, v := range direct {
		out[k] = v
	}
	n := float64(len(plain.window))
	outcomes := make(map[string]float64)
	var runs, prefixHits, saved, total, stored float64
	var sizes []float64
	for _, s := range plain.window {
		outcomes[s.cache]++
		sizes = append(sizes, float64(s.bytes))
		if v, ok := service.ParseMemoHeader(s.memo); ok {
			runs += float64(v.Runs)
			prefixHits += float64(v.PrefixHits)
			saved += float64(v.QuantaSaved)
			total += float64(v.QuantaTotal)
			stored += float64(v.SnapshotsStored)
		}
	}
	out["service.lru_hit_ratio"] = ratio(outcomes[string(service.OutcomeHit)], n)
	out["service.disk_hit_ratio"] = ratio(outcomes[string(service.OutcomeDisk)], n)
	out["service.exec_ratio"] = ratio(outcomes[string(service.OutcomeMiss)], n)
	out["service.coalesced"] = outcomes[string(service.OutcomeCoalesced)]
	a, b := plain.statsStart, plain.statsEnd
	out["service.rejected"] = float64(b.Rejected - a.Rejected)
	out["service.failed"] = float64(b.Failed - a.Failed)
	if a, b := plain.cacheStart.Store, plain.cacheEnd.Store; a != nil && b != nil {
		out["store.corrupt"] = float64(b.Corrupt - a.Corrupt)
	}
	out["memo.prefix_hit_ratio"] = ratio(prefixHits, runs)
	out["memo.quanta_saved_frac"] = ratio(saved, total)
	out["memo.snapshots_per_run"] = ratio(stored, runs)
	if a, b := plain.cacheStart.Memo, plain.cacheEnd.Memo; a != nil && b != nil {
		out["memo.evicted"] = float64(b.Evicted - a.Evicted)
		out["memo.bytes"] = float64(b.Bytes)
	}
	out["report.bytes"] = median(sizes)
	out["server.cpu_ms_per_req"] = ratio(plain.serverCPU*1e3, n)
	out["client.cpu_frac"] = ratio(plain.clientCPU, plain.windowSec)
	// Each pass's throughput is normalized by what was measured during it:
	// the machine can change between the two passes.
	plainRPS, tracedRPS := endToEnd(plain)["throughput_rps"], endToEnd(traced)["throughput_rps"]
	for _, m := range EndToEnd {
		if m.Name == "throughput_rps" {
			plainRPS = normalize(m, plainRPS, plain.windowCPU.availability(), plain.speed.factor())
			tracedRPS = normalize(m, tracedRPS, traced.windowCPU.availability(), traced.speed.factor())
		}
	}
	out["obs.trace_overhead_pct"] = ratio(plainRPS-tracedRPS, plainRPS) * 100

	for _, name := range spanMetrics {
		var v []float64
		for _, r := range traced.spans {
			if t, ok := r.layers[name]; ok {
				v = append(v, t)
			}
		}
		out[name] = median(v)
	}
	var simSec, wall, quanta, batches float64
	for _, r := range traced.spans {
		simSec, wall, quanta, batches = simSec+r.simSec, wall+r.simWallSec, quanta+r.quanta, batches+r.batches
	}
	out["machine.sim_s_per_host_s"] = ratio(simSec, wall)
	out["machine.quanta_per_host_s"] = ratio(quanta, wall)
	out["machine.quanta_per_batch"] = ratio(quanta, batches)

	// Daemon exploration per cuttlefish-family execution, from X-Timeline.
	var explore, lanes float64
	for _, s := range traced.window {
		if c, ok := service.ParseTimelineHeader(s.timeline); ok && strings.HasPrefix(s.req.spec.Governor, governorFamily) {
			explore += float64(c.ExplorationQuanta)
			lanes += float64(c.Runs)
		}
	}
	out["governor.explore_quanta_per_run"] = ratio(explore, lanes)
	return out
}

// governorFamily prefixes the daemon-backed governors' registry names.
const governorFamily = "cuttlefish"

// differential re-executes three of the window's specs in-process from
// scratch and requires the bytes cfserve served for them — from whichever
// tier — to be identical.
func differential(ctx context.Context, c *client, window []sample) error {
	if len(window) == 0 {
		c.fail("no request answered in the measured window")
		return nil
	}
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	for _, s := range []sample{window[0], window[len(window)/2], window[len(window)-1]} {
		c.attempted.Add(1)
		res, err := svc.Submit(ctx, s.req.spec)
		if err != nil {
			c.fail("%s: in-process execution: %v", s.req.hash[:12], err)
			continue
		}
		c.mu.Lock()
		served := c.served[s.req.hash]
		c.mu.Unlock()
		if sha256.Sum256(res.Body) != served {
			c.fail("%s: a fresh in-process execution differs from the bytes cfserve served", s.req.hash[:12])
		}
	}
	return ctx.Err()
}
