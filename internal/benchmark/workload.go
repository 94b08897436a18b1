// Package benchmark is cfbench's engine. It starts a fresh cfserve
// process per workload, drives it closed-loop over loopback HTTP, checks
// every response, and reports end-to-end metrics from an untraced pass
// and per-layer metrics from a traced pass (cfserve's own span trees,
// counters and response headers) plus direct timings of each layer's
// public functions on the workload's inputs. All measurement is from
// outside the program: nothing here adds a span or counter to cfserve.
package benchmark

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Workload is one traffic mix.
type Workload struct {
	Name string
	Why  string
	plan func(seed int64) *plan
}

// plan is one seeded instance of a workload: the same seed gives the same
// requests, in the same order.
type plan struct {
	// population is sent once, untimed, to a first server on the run's
	// fresh directories: the results (hot-zipf) or snapshots (memo-resume)
	// the measured servers start from.
	population []*request
	// cache is the measured servers' LRU size in entries (0: cfserve's
	// default).
	cache int
	// rssStep is the number of requests between two reads of the measured
	// server's resident set (see rssSampler). Its rssSamples multiple is
	// at most two fifths of what the reference machine sends in warm-up
	// and window, so that a machine twice as slow still reaches every read.
	rssStep int
	// next returns request i of the measured stream (warm-up included).
	next func(i int) *request
}

// request is one POST /v1/runs body with the content hash cfserve must
// answer with.
type request struct {
	spec service.RunSpec
	body []byte
	hash string
}

func newRequest(s service.RunSpec) *request {
	body, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal spec: %v", err)) // RunSpec is plain data
	}
	return &request{spec: s, body: body, hash: s.Hash()}
}

// Workload parameters. Scale 0.03 with a 0.25 s daemon warm-up keeps a
// cold run near 10 ms while the governors still act: at the default 2 s
// warm-up a run this short ends before any daemon tick.
//
// cfserve's snapshot LRU gets memoBudget instead of its 64 MiB default so
// that it fills during warm-up: with the default it fills only after
// ~30 s of cold-novel or memo-resume traffic, cfserve's RSS grows
// through the whole window (78 → 173 MiB in one memo-resume window), and
// rss_mb would measure how far the LRU had filled.
const (
	memoBudget = 16 << 20
	coldScale  = 0.03
	coldWarmup = 0.25
	memoScale  = 0.05
	memoSeed   = 7
	hotSet     = 512
	hotCache   = 64
	zipfS      = 1.1
	// Each workload's plan.rssStep.
	coldRSSStep = 256
	memoRSSStep = 2048
	hotRSSStep  = 16384
)

// Workloads is every workload, in the order a full run executes them.
var Workloads = []Workload{
	{"cold-novel", "every request is a never-seen spec, so engine, governor and report encode run from boot and no cache tier serves anything", coldNovel},
	{"memo-resume", "each request edits only the tail of a memoized 8-phase program, so it misses the result cache and resumes from a snapshot", memoResume},
	{"hot-zipf", "Zipf draws over 512 stored specs behind a 64-entry LRU, so only LRU and disk hits are served and nothing executes", hotZipf},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// mix hashes (seed, stream, i) to a uniform 64-bit value (splitmix64), so
// request i of a stream is the same whichever client sends it.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream<<40+i+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func uniform(seed int64, stream, i uint64) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// Hash streams, one per independent draw.
const (
	streamComboOrder = iota + 1
	streamRunSeed
	streamTail
	streamZipf
	streamZipfOrder
)

// coldSpecs returns request i of the cold-novel stream: round-robin over
// every registered workload × governor pair, in a seeded order, each with
// a fresh simulation seed.
func coldSpecs(seed int64) func(i int) service.RunSpec {
	type combo struct{ workload, governor string }
	var combos []combo
	for _, w := range scenario.Names() {
		for _, g := range governor.Names() {
			combos = append(combos, combo{w, g})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), streamComboOrder))
	rng.Shuffle(len(combos), func(a, b int) { combos[a], combos[b] = combos[b], combos[a] })
	return func(i int) service.RunSpec {
		c := combos[i%len(combos)]
		return service.RunSpec{
			Scenario: c.workload, Governor: c.governor,
			Scale: coldScale, WarmupSec: coldWarmup, Reps: 1,
			Seed: int64(mix(seed, streamRunSeed, uint64(i))>>2) | 1,
		}
	}
}

func coldNovel(seed int64) *plan {
	spec := coldSpecs(seed)
	return &plan{rssStep: coldRSSStep, next: func(i int) *request { return newRequest(spec(i)) }}
}

// memoProgram is the memo-resume scenario: eight 3e11-instruction phases
// alternating compute and memory, then a 1e11 tail. Only the tail's
// remote_frac and jitter_frac vary between requests. Neither enters
// Definition.EstimateSeconds, so the simulation deadline — and with it
// every prefix key — stays that of the population runs.
func memoProgram(tailRemote, tailJitter float64) *scenario.Definition {
	d := &scenario.Definition{Name: "cfbench-memo"}
	for k := 0; k < 8; k++ {
		p := scenario.PhaseDef{Name: fmt.Sprintf("compute-%d", k), Instructions: 3e11, MissPerInstr: 0.0005, IPC: 2.0}
		if k%2 == 1 {
			p = scenario.PhaseDef{Name: fmt.Sprintf("memory-%d", k), Instructions: 3e11, MissPerInstr: 0.01, IPC: 1.2, RemoteFrac: 0.2}
		}
		d.Phases = append(d.Phases, p)
	}
	d.Phases = append(d.Phases, scenario.PhaseDef{Name: "tail", Instructions: 1e11, MissPerInstr: 0.004, IPC: 1.6,
		RemoteFrac: tailRemote, JitterFrac: tailJitter})
	return d
}

func memoResume(seed int64) *plan {
	govs := governor.Names()
	spec := func(gov string, def *scenario.Definition) service.RunSpec {
		return service.RunSpec{ScenarioDef: def, Governor: gov, Scale: memoScale, Seed: memoSeed, WarmupSec: coldWarmup, Reps: 1}
	}
	p := &plan{rssStep: memoRSSStep}
	for _, g := range govs {
		p.population = append(p.population, newRequest(spec(g, memoProgram(0, 0))))
	}
	// An irrational rotation from a seeded start never repeats a tail, so
	// every request is a result-cache miss.
	r0, j0 := uniform(seed, streamTail, 0), uniform(seed, streamTail, 1)
	p.next = func(i int) *request {
		remote := 0.5 * frac(r0+float64(i)*math.Phi)
		jitter := 0.3 * frac(j0+float64(i)*math.Sqrt2)
		return newRequest(spec(govs[i%len(govs)], memoProgram(remote, jitter)))
	}
	return p
}

func frac(x float64) float64 { return x - math.Floor(x) }

// hotZipf stores hotSet cold-novel specs, then draws Zipf(zipfS) over
// them; rank r maps to a seeded position so the hot keys differ by seed.
func hotZipf(seed int64) *plan {
	spec := coldSpecs(seed)
	p := &plan{cache: hotCache, rssStep: hotRSSStep}
	for i := 0; i < hotSet; i++ {
		p.population = append(p.population, newRequest(spec(i)))
	}
	cdf := make([]float64, hotSet)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -zipfS)
		cdf[r] = sum
	}
	order := rand.New(rand.NewPCG(uint64(seed), streamZipfOrder)).Perm(hotSet)
	p.next = func(i int) *request {
		u := uniform(seed, streamZipf, uint64(i)) * sum
		r := sort.SearchFloat64s(cdf, u)
		if r == hotSet {
			r--
		}
		return p.population[order[r]]
	}
	return p
}
