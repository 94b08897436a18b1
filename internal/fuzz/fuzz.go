// Package fuzz is the generative scenario fuzzer and differential
// governor-testing harness: it samples whole scenario phase programs from
// seeded Kumaraswamy/uniform/choice distributions (reusing the
// internal/grid samplers the sweep axes already draw from), expands
// `cuttlefish fuzz -n 1000 -seed k` into a bit-deterministic hash-deduped
// corpus, runs every corpus scenario under every registered governor
// through the same content-addressed service backends sweeps use, and
// distils the cross-governor metrics into a findings report: execution
// errors, governor-ordering inversions (cuttlefish losing to default or
// static on energy, powersave "beating" the maximum-frequency baseline on
// runtime) and slowdowns, plus metric regressions against a committed
// baseline so a behavioral change across PRs is a test failure rather
// than a vibe.
//
// Determinism contract: a corpus is a pure function of (N, seed, the
// generator's distribution constants) and every differential cell is a
// pure function of its RunSpec — no host setting enters a spec the fuzzer
// emits, so findings are identical across host parallelism settings,
// across the local/remote backends, and across cold/warm cache tiers
// (which change only how fast the same canonical bytes come back).
package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/governor"
	"repro/internal/scenario"
)

// Config shapes one fuzzing pass. The zero value of every field picks a
// fuzz-oriented default: small fast runs (the point is breadth over the
// scenario space, not paper-length fidelity), every registered governor,
// and the daemon warmup disabled so adaptive governors act within the
// short runs instead of riding their cold-start path the whole time.
type Config struct {
	// N is the number of scenarios to generate before hash-dedup
	// (0 = 100).
	N int
	// Seed drives the whole corpus; equal (N, Seed) reproduce equal
	// corpora bit for bit (0 = 1).
	Seed int64
	// Governors is the differential comparison set (nil = every
	// registered governor, sorted).
	Governors []string
	// Cores is the simulated core count per run (0 = 8 — smaller than
	// the paper's 20-core socket to keep 1000-scenario passes cheap).
	Cores int
	// Scale multiplies instruction budgets (0 = 0.05).
	Scale float64
	// Reps is repetitions per cell; metrics are means over reps
	// (0 = 1).
	Reps int
	// TinvSec is the daemon profiling interval (0 = 20 ms).
	TinvSec float64
	// WarmupSec follows governor.Tuning semantics; the default is -1,
	// warmup disabled (0 keeps -1; set a positive value to restore it).
	WarmupSec float64
	// MaxPhases bounds the phase count per generated scenario (0 = 4).
	MaxPhases int
	// InversionTol is the relative energy slack before a cross-governor
	// ordering counts as inverted (0 = 0.02).
	InversionTol float64
	// SlowdownTol is the relative runtime slack before cuttlefish's
	// overhead over default counts as a slowdown finding (0 = 0.25).
	SlowdownTol float64
	// RegressTol is the relative metric drift vs a baseline before a
	// cell counts as regressed (0 = 0.05).
	RegressTol float64
	// Workers bounds concurrent differential cells (0 = GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Governors) == 0 {
		c.Governors = governor.Names()
	} else {
		c.Governors = append([]string(nil), c.Governors...)
		sort.Strings(c.Governors)
	}
	if c.Cores <= 0 {
		c.Cores = 8
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.TinvSec <= 0 {
		c.TinvSec = 20e-3
	}
	if c.WarmupSec == 0 {
		c.WarmupSec = -1
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 4
	}
	if c.InversionTol <= 0 {
		c.InversionTol = 0.02
	}
	if c.SlowdownTol <= 0 {
		c.SlowdownTol = 0.25
	}
	if c.RegressTol <= 0 {
		c.RegressTol = 0.05
	}
	return c
}

// Entry is one corpus scenario: a normalized definition plus the run
// seed its differential cells execute with. It is the unit of corpus
// persistence — a minimized failing scenario is written as one Entry
// JSON file under testdata/corpus/ and replayed with `cuttlefish fuzz
// -replay`.
type Entry struct {
	// Seed is the RunSpec seed of every cell of this scenario. The
	// generator derives it from the definition's content hash, so two
	// textually identical generated scenarios are identical runs and
	// hash-dedup is exact.
	Seed int64 `json:"seed"`
	// Def is the normalized scenario definition.
	Def scenario.Definition `json:"def"`
	// Note records provenance (generator seed/index, the finding that
	// got a corpus file committed); it is not part of any digest.
	Note string `json:"note,omitempty"`
}

// canonicalDef returns the canonical bytes of a definition: normalized,
// fixed struct field order. defDigest and corpus dedup key on it.
func canonicalDef(d scenario.Definition) []byte {
	raw, err := json.Marshal(d.Normalized())
	if err != nil {
		// Definition is a struct of scalars and one slice of scalar
		// structs; Marshal cannot fail on it.
		panic(fmt.Sprintf("fuzz: canonical marshal: %v", err))
	}
	return raw
}

// defDigest is the content hash of a definition, independent of its
// (content-derived) name and description: the dedup identity.
func defDigest(d scenario.Definition) [32]byte {
	anon := d
	anon.Name = ""
	anon.Description = ""
	return sha256.Sum256(canonicalDef(anon))
}

// Corpus is one expanded scenario set, in generation order after
// hash-dedup.
type Corpus struct {
	// Seed and Requested echo the generation parameters.
	Seed      int64 `json:"seed"`
	Requested int   `json:"requested"`
	// Duplicates counts generated scenarios dropped by hash-dedup.
	Duplicates int `json:"duplicates"`
	// Entries are the surviving scenarios in generation order.
	Entries []Entry `json:"entries"`
}

// Digest is the corpus's content address: the hex SHA-256 over every
// entry's (seed, canonical definition) in order. Two fuzz invocations
// agree on their whole corpus iff their digests are equal, the
// corpus half of the fuzzer's bit-determinism contract.
func (c *Corpus) Digest() string {
	h := sha256.New()
	for _, e := range c.Entries {
		binary.Write(h, binary.BigEndian, e.Seed)
		h.Write(canonicalDef(e.Def))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LoadCorpus reads replayable corpus entries from path: either one Entry
// JSON file, or a directory whose *.json files (in sorted filename
// order, for determinism) each hold one Entry. Every entry is normalized
// and validated on the way in — a corrupt corpus file is an error, not a
// silent skip.
func LoadCorpus(path string) (*Corpus, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("fuzz: corpus: %w", err)
	}
	var files []string
	if info.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus: %w", err)
		}
		for _, de := range ents {
			if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
				files = append(files, filepath.Join(path, de.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("fuzz: corpus: no *.json entries under %s", path)
		}
	} else {
		files = []string{path}
	}
	c := &Corpus{Requested: len(files)}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus: %w", err)
		}
		e, err := ParseEntry(raw)
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus %s: %w", f, err)
		}
		c.Entries = append(c.Entries, e)
	}
	return c, nil
}

// ParseEntry decodes and validates one corpus entry.
func ParseEntry(raw []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return Entry{}, err
	}
	e.Def = e.Def.Normalized()
	if err := e.Def.Validate(); err != nil {
		return Entry{}, err
	}
	if e.Seed == 0 {
		e.Seed = seedFromDef(e.Def)
	}
	return e, nil
}

// WriteEntry persists one corpus entry as an indented, replayable JSON
// file (atomic enough for testdata: these are committed artifacts, not a
// live store).
func WriteEntry(path string, e Entry) error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// seedFromDef derives the entry's run seed from the definition's content
// hash: positive, nonzero (zero would renormalize to the service
// default), and a pure function of content so identical definitions are
// identical runs.
func seedFromDef(d scenario.Definition) int64 {
	sum := defDigest(d)
	s := int64(binary.BigEndian.Uint64(sum[:8]) & (1<<62 - 1))
	if s == 0 {
		s = 1
	}
	return s
}
