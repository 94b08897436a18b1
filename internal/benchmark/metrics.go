package benchmark

import (
	"math"
	"sort"
)

// Metric is one reported quantity; BENCHMARK.json lists the same names,
// units and directions. End-to-end metrics carry the share of the parent's
// median by which a change may worsen them, and the exponents normalize
// applies to them. Per-layer metrics carry no bound; Moves and On name the
// end-to-end metric ("failed": the count of failed requests) and the
// workload ("all": every workload) a change to their layer should move.
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Steal  float64
	Speed  float64
	Moves  string
	On     string
}

func layer(name, unit, better, moves, on string) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Moves: moves, On: on}
}

// EndToEnd is what a user of cfserve sees, measured with tracing off.
// Every workload produces every one of them. Each is normalized (see
// normalize) by two things measured alongside it: the share of CPU time
// the hypervisor gave the machine, to the power Steal, and the probe's
// speed per CPU-second, to the power Speed. calibration.json holds the
// runs the exponents and bounds come from.
//
// The closed loop's throughput moves with the square of the CPU share: a
// request's path alternates between the generator and cfserve, so it
// needs both virtual CPUs in turn. Latency is less exposed: a request
// shorter than the gaps between the hypervisor's interruptions mostly
// misses them, and its median moves with about the square root. Both move
// with the probe's speed to the power 1.5: when co-tenants slow the host,
// cfserve's memory and kernel work slows more than the probe's cache-
// resident arithmetic. Set-up is one process starting alone.
//
// A bound is about three times the widest 10-run spread calibration saw
// for its metric on any workload (0.08 for throughput and latency, 0.054
// for RSS), and at most 0.25. setup_s, whose spread is not gated, gets
// the largest bound.
//
// A tail percentile is not gated. On the shared 2-vCPU host, p99 (and
// p90 on memo-resume) is the length of the hypervisor's interruptions,
// not of cfserve's work: its 10-run spread reached 0.5 to 3 times its
// median. Tail latencies print as detail.
var EndToEnd = []Metric{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25, Steal: 2, Speed: 1.5},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Steal: 0.5, Speed: 1.5},
	// rss_mb is the median of cfserve's resident set read at fixed request
	// counts (see rssSampler). Read at fixed times it counted the requests
	// the machine's speed let through (0.8 KB each on memo-resume); a peak
	// (VmHWM) moved with when the garbage collector happened to run.
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	// setup_s is the median time from starting cfserve on the workload's
	// populated directories until /healthz answers.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Steal: 1, Speed: 1},
}

// PerLayer names each module's share of the work, from the traced pass
// (span self times, counters, response headers) and from direct calls.
var PerLayer = []Metric{
	// service: admission, the LRU, the queue and the worker fleet.
	layer("service.admission_ms", "ms", "lower", "latency_p50_ms", "hot-zipf"),
	layer("service.cache_probe_ms", "ms", "lower", "latency_p50_ms", "hot-zipf"),
	layer("service.queue_wait_ms", "ms", "lower", "latency_p50_ms", "memo-resume"),
	layer("service.execute_self_ms", "ms", "lower", "latency_p50_ms", "cold-novel"),
	layer("service.report_encode_ms", "ms", "lower", "latency_p50_ms", "cold-novel"),
	layer("service.request_self_ms", "ms", "lower", "latency_p50_ms", "cold-novel"),
	layer("service.unattributed_ms", "ms", "lower", "latency_p50_ms", "hot-zipf"),
	layer("service.lru_hit_ratio", "fraction", "higher", "throughput_rps", "hot-zipf"),
	layer("service.disk_hit_ratio", "fraction", "lower", "throughput_rps", "hot-zipf"),
	layer("service.exec_ratio", "fraction", "lower", "throughput_rps", "hot-zipf"),
	layer("service.coalesced", "count", "lower", "failed", "all"),
	layer("service.rejected", "count", "lower", "failed", "all"),
	layer("service.failed", "count", "lower", "failed", "all"),
	layer("service.spec_hash_us", "us", "lower", "latency_p50_ms", "hot-zipf"),
	layer("service.submit_hit_us", "us", "lower", "latency_p50_ms", "hot-zipf"),
	// store: the persistent result tier.
	layer("store.probe_ms", "ms", "lower", "throughput_rps", "hot-zipf"),
	layer("store.get_us", "us", "lower", "throughput_rps", "hot-zipf"),
	layer("store.put_us", "us", "lower", "latency_p50_ms", "cold-novel"),
	layer("store.open_s", "s", "lower", "setup_s", "hot-zipf"),
	layer("store.corrupt", "count", "lower", "failed", "all"),
	// memo: the prefix-snapshot tier.
	layer("memo.probe_ms", "ms", "lower", "latency_p50_ms", "memo-resume"),
	layer("memo.restore_ms", "ms", "lower", "latency_p50_ms", "memo-resume"),
	layer("memo.prefix_hit_ratio", "fraction", "higher", "latency_p50_ms", "memo-resume"),
	layer("memo.quanta_saved_frac", "fraction", "higher", "throughput_rps", "memo-resume"),
	layer("memo.snapshots_per_run", "count", "lower", "latency_p50_ms", "cold-novel"),
	layer("memo.get_us", "us", "lower", "latency_p50_ms", "memo-resume"),
	layer("memo.put_us", "us", "lower", "latency_p50_ms", "memo-resume"),
	layer("memo.evicted", "count", "lower", "rss_mb", "memo-resume"),
	layer("memo.bytes", "bytes", "lower", "rss_mb", "memo-resume"),
	// machine: the simulation engine.
	layer("machine.simulate_ms", "ms", "lower", "latency_p50_ms", "cold-novel"),
	layer("machine.sim_s_per_host_s", "s/s", "higher", "throughput_rps", "cold-novel"),
	layer("machine.quanta_per_host_s", "1/s", "higher", "throughput_rps", "cold-novel"),
	layer("machine.quanta_per_batch", "quanta", "higher", "throughput_rps", "cold-novel"),
	layer("machine.step_ns", "ns", "lower", "throughput_rps", "cold-novel"),
	layer("machine.allocs_per_quantum", "allocs", "lower", "throughput_rps", "cold-novel"),
	layer("machine.snapshot_encode_us", "us", "lower", "latency_p50_ms", "cold-novel"),
	layer("machine.snapshot_decode_us", "us", "lower", "latency_p50_ms", "memo-resume"),
	layer("machine.restore_us", "us", "lower", "latency_p50_ms", "memo-resume"),
	layer("machine.snapshot_bytes", "bytes", "lower", "rss_mb", "memo-resume"),
	// governor: the frequency-control strategies.
	layer("governor.tick_us", "us", "lower", "latency_p50_ms", "cold-novel"),
	layer("governor.attach_detach_us", "us", "lower", "latency_p50_ms", "cold-novel"),
	layer("governor.explore_quanta_per_run", "quanta", "lower", "latency_p50_ms", "cold-novel"),
	// scenario and report: workload construction and the served bytes.
	layer("scenario.build_ms", "ms", "lower", "latency_p50_ms", "cold-novel"),
	layer("report.bytes", "bytes", "lower", "latency_p50_ms", "hot-zipf"),
	// process: the two processes sharing the CPUs.
	layer("server.cpu_ms_per_req", "ms", "lower", "throughput_rps", "all"),
	layer("client.cpu_frac", "fraction", "lower", "throughput_rps", "all"),
	layer("obs.trace_overhead_pct", "%", "lower", "throughput_rps", "all"),
}

// normalize converts a value measured at CPU availability avail (see
// hostCPU) and probe speed factor speed (see probe) to the reference
// machine, which has its CPUs to itself: a rate is divided by
// avail^Steal·speed^Speed, anything else multiplied by it.
func normalize(m Metric, v, avail, speed float64) float64 {
	f := math.Pow(avail, m.Steal) * math.Pow(speed, m.Speed)
	if m.Unit == "1/s" {
		return v / f
	}
	return v * f
}

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile is the nearest-rank percentile of sorted values (0 if none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is n/d, 0 when nothing was counted.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
