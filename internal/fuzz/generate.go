package fuzz

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/grid"
	"repro/internal/scenario"
)

// Distribution constants of the generator. These are part of the corpus
// identity: changing any of them changes every corpus digest, which is
// exactly what the committed baseline is there to catch. The Kumaraswamy
// shapes skew each knob toward the regime the paper's Table 1 spans
// while keeping the tails open — (1.6, 2.2) over a log-instruction axis
// concentrates mass mid-range, (1.2, 3.0) over miss density favors
// compute-leaning phases but still draws bandwidth-saturating ones.
const (
	genTaskDAGProb       = 0.30 // else work-sharing
	genLogInstrMin       = 10.0 // 10^10 instructions per phase, minimum
	genLogInstrMax       = 11.5 // 10^11.5 ≈ 3.2e11, maximum
	genMissMax           = 0.12 // past the AMG end of Table 1
	genIPCMin, genIPCMax = 0.5, 2.4
	genRemoteMax         = 0.5
	genExposureUnsetP    = 0.25 // leave exposure at the default (fully exposed)
	genExposureZeroP     = 0.10 // perfectly prefetched phase
	genJitterP           = 0.50
	genJitterMax         = 0.30
	genMissJitterP       = 0.30
	genMissJitterMax     = 0.008
)

// splitmix64 is the per-index seed scrambler: adjacent corpus indices
// must not produce correlated sampler streams, and math/rand's LCG-style
// seeding is too forgiving of nearby seeds to rely on directly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// entrySeed derives the sampler seed of corpus index i.
func entrySeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(uint64(i)+0x5fa2b7)) & (1<<62 - 1))
}

// Generate expands (cfg.N, cfg.Seed) into the corpus: N sampled phase
// programs, hash-deduped on content, every survivor validated and
// round-tripped through the DSL's JSON form. The result is bit-identical
// across machines and invocations — generation touches no clock, no
// global RNG and no map iteration order.
func Generate(cfg Config) (*Corpus, error) {
	cfg = cfg.withDefaults()
	c := &Corpus{Seed: cfg.Seed, Requested: cfg.N}
	seen := make(map[[32]byte]bool, cfg.N)
	for i := 0; i < cfg.N; i++ {
		def := generateDefinition(grid.NewSampler(entrySeed(cfg.Seed, i)), cfg)
		if err := checkGenerated(def); err != nil {
			// A generator bug, not a data error: the distributions above
			// are constructed to emit only valid programs.
			return nil, fmt.Errorf("fuzz: generated scenario %d invalid: %w", i, err)
		}
		key := defDigest(def)
		if seen[key] {
			c.Duplicates++
			continue
		}
		seen[key] = true
		c.Entries = append(c.Entries, Entry{
			Seed: seedFromDef(def),
			Def:  def,
			Note: fmt.Sprintf("generated: seed %d index %d", cfg.Seed, i),
		})
	}
	return c, nil
}

// generateDefinition samples one phase program. Every draw comes from
// the entry's private sampler stream in a fixed call order, so the
// definition is a pure function of the sampler seed.
func generateDefinition(s *grid.Sampler, cfg Config) scenario.Definition {
	d := scenario.Definition{
		Decomposition: scenario.WorkSharing,
		Iterations:    s.IntBetween(1, 4),
	}
	if s.Bool(genTaskDAGProb) {
		d.Decomposition = scenario.TaskDAG
	}
	phases := s.IntBetween(1, maxPhases)
	for p := 0; p < phases; p++ {
		ph := scenario.PhaseDef{
			Name:          fmt.Sprintf("p%d", p),
			Instructions:  math.Pow(10, s.Kumaraswamy(1.6, 2.2, genLogInstrMin, genLogInstrMax)),
			MissPerInstr:  s.Kumaraswamy(1.2, 3.0, 0, genMissMax),
			IPC:           s.Kumaraswamy(2, 2, genIPCMin, genIPCMax),
			RemoteFrac:    s.Uniform(0, genRemoteMax),
			ChunksPerCore: []int{4, 8, 16}[s.Choice([]float64{1, 2, 2})],
			Repeat:        s.IntBetween(1, 3),
		}
		switch {
		case s.Bool(genExposureUnsetP):
			// fully exposed via the normalization default
		case s.Bool(genExposureZeroP / (1 - genExposureUnsetP)):
			zero := 0.0
			ph.Exposure = &zero // perfectly prefetched
		default:
			e := s.Uniform(0.05, 1)
			ph.Exposure = &e
		}
		if s.Bool(genJitterP) {
			ph.JitterFrac = s.Uniform(0, genJitterMax)
		}
		if s.Bool(genMissJitterP) {
			ph.MissJitter = s.Uniform(0, genMissJitterMax)
		}
		d.Phases = append(d.Phases, ph)
	}
	d = d.Normalized()
	// Name and description derive from content (never from the corpus
	// index), so two identical programs from different indices carry
	// identical bytes and hash-dedup sees through them.
	sum := defDigest(d)
	d.Name = fmt.Sprintf("fuzz-%x", sum[:6])
	d.Description = fmt.Sprintf("generated: %d phase(s) × %d iteration(s), %s",
		len(d.Phases), d.Iterations, d.Decomposition)
	return d
}

// checkGenerated enforces the generator's output contract: the scenario
// validates, and it survives a round trip through the DSL's JSON form
// unchanged — the property corpus persistence and RunSpec embedding both
// lean on.
func checkGenerated(d scenario.Definition) error {
	if err := d.Validate(); err != nil {
		return err
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	back, err := scenario.ParseDefinition(raw)
	if err != nil {
		return fmt.Errorf("round trip parse: %w", err)
	}
	if norm := back.Normalized(); !reflect.DeepEqual(norm, d) {
		return fmt.Errorf("round trip changed the definition")
	}
	return nil
}
