package fuzz

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
)

// Baseline is a committed snapshot of one differential pass: the corpus
// identity, every cell's metrics and the findings that held. CI
// regenerates the pass and diffs against it, so a governor-ordering
// change or a metric drift across PRs fails the build instead of
// slipping by — and an intentional behavior change updates the committed
// file (via `cuttlefish fuzz -write-baseline`) where reviewers see it.
type Baseline struct {
	N            int       `json:"n"`
	Seed         int64     `json:"seed"`
	Cores        int       `json:"cores"`
	Scale        float64   `json:"scale"`
	Reps         int       `json:"reps"`
	CorpusDigest string    `json:"corpus_digest"`
	Governors    []string  `json:"governors"`
	Findings     []Finding `json:"findings"`
	Cells        []Cell    `json:"cells"`
}

// BaselineOf snapshots a report under its run parameters.
func BaselineOf(rep *Report, cfg Config) *Baseline {
	cfg = cfg.withDefaults()
	return &Baseline{
		N:            rep.N,
		Seed:         rep.Seed,
		Cores:        cfg.Cores,
		Scale:        cfg.Scale,
		Reps:         cfg.Reps,
		CorpusDigest: rep.CorpusDigest,
		Governors:    rep.Governors,
		Findings:     rep.Findings,
		Cells:        rep.Cells,
	}
}

// LoadBaseline reads a committed baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fuzz: baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("fuzz: baseline %s: %w", path, err)
	}
	return &b, nil
}

// Save writes the baseline as indented JSON, stable enough to diff in
// review.
func (b *Baseline) Save(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Diff compares a fresh report against the committed baseline and
// returns everything that should fail CI:
//
//   - new findings: (scenario, kind, governor, reference) keys present
//     now but absent from the baseline — a behavior the baseline never
//     sanctioned;
//   - regressions: cells whose energy or runtime worsened beyond
//     regressTol relative to the committed metrics (improvements
//     pass silently — they are a reason to refresh the baseline, not a
//     failure).
//
// Resolved findings (in the baseline, gone now) are returned separately
// so the caller can suggest a baseline refresh without failing.
//
// A corpus-digest or governor-set mismatch is an error, not a diff: the
// two passes ran different work, so a cell-level comparison would be
// meaningless.
func Diff(b *Baseline, rep *Report) (violations, resolved []Finding, err error) {
	if b.CorpusDigest != rep.CorpusDigest {
		return nil, nil, fmt.Errorf("fuzz: corpus digest mismatch: baseline %.12s… vs run %.12s… — the generator or its inputs changed; regenerate the baseline with -write-baseline",
			b.CorpusDigest, rep.CorpusDigest)
	}
	if !reflect.DeepEqual(b.Governors, rep.Governors) {
		return nil, nil, fmt.Errorf("fuzz: governor set mismatch: baseline %v vs run %v", b.Governors, rep.Governors)
	}
	base := make(map[string]Finding, len(b.Findings))
	for _, f := range b.Findings {
		base[f.key()] = f
	}
	now := make(map[string]Finding, len(rep.Findings))
	for _, f := range rep.Findings {
		now[f.key()] = f
		if _, ok := base[f.key()]; !ok {
			nf := f
			nf.Detail = "new vs baseline: " + f.Detail
			violations = append(violations, nf)
		}
	}
	for _, f := range b.Findings {
		if _, ok := now[f.key()]; !ok {
			resolved = append(resolved, f)
		}
	}
	baseCells := make(map[string]Cell, len(b.Cells))
	for _, c := range b.Cells {
		baseCells[c.Scenario+"\x00"+c.Governor] = c
	}
	for _, c := range rep.Cells {
		bc, ok := baseCells[c.Scenario+"\x00"+c.Governor]
		if !ok || bc.Err != "" || c.Err != "" {
			continue // error transitions are covered by the findings diff
		}
		for _, m := range []struct {
			name      string
			now, base float64
		}{
			{"joules", c.Joules, bc.Joules},
			{"seconds", c.Seconds, bc.Seconds},
		} {
			if m.base <= 0 || math.IsNaN(m.now) {
				continue
			}
			if m.now > m.base*(1+regressTol) {
				pct := 100 * (m.now/m.base - 1)
				violations = append(violations, Finding{
					Scenario:  c.Scenario,
					Kind:      KindRegression,
					Governor:  c.Governor,
					Reference: "baseline",
					DeltaPct:  pct,
					Detail:    fmt.Sprintf("%s regressed %.1f%% vs baseline (%g vs %g)", m.name, pct, m.now, m.base),
				})
			}
		}
	}
	sort.SliceStable(violations, func(a, b int) bool { return violations[a].key() < violations[b].key() })
	sort.SliceStable(resolved, func(a, b int) bool { return resolved[a].key() < resolved[b].key() })
	return violations, resolved, nil
}
