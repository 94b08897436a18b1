package fuzz

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
)

// Cell is one (scenario, governor) execution of the differential pass:
// the mean metrics over the cell's repetitions, or the error that kept
// it from producing them. Outcome records how the backend served the
// cell (hit/miss/disk/coalesced); it is operational detail, deliberately
// excluded from every digest so warm and cold passes stay byte-identical
// where it counts.
type Cell struct {
	Scenario string  `json:"scenario"`
	Governor string  `json:"governor"`
	Seconds  float64 `json:"seconds,omitempty"`
	Joules   float64 `json:"joules,omitempty"`
	Err      string  `json:"error,omitempty"`
	Outcome  string  `json:"-"`
}

// Finding kinds, the taxonomy of the differential report.
const (
	// KindError is a cell that failed to execute: validation rejection,
	// simulation deadline overrun, backend crash.
	KindError = "error"
	// KindInversion is a governor-ordering inversion: cuttlefish using
	// measurably more energy than a non-adaptive reference environment.
	KindInversion = "inversion"
	// KindAnomaly is a physically suspicious ordering: the
	// minimum-frequency powersave environment finishing faster than the
	// maximum-frequency default.
	KindAnomaly = "anomaly"
	// KindSlowdown is cuttlefish exceeding default's runtime beyond the
	// configured overhead budget.
	KindSlowdown = "slowdown"
	// KindRegression is a metric drifted beyond tolerance against a
	// committed baseline (produced only by Diff, never by Run).
	KindRegression = "regression"
)

// Finding is one flagged behavior, a pure function of the cells.
type Finding struct {
	Scenario string `json:"scenario"`
	Kind     string `json:"kind"`
	// Governor is the strategy the finding is about; Reference the
	// strategy it was compared against (empty for error findings).
	Governor  string `json:"governor,omitempty"`
	Reference string `json:"reference,omitempty"`
	// DeltaPct quantifies the comparison (energy or runtime excess, in
	// percent), zero for error findings.
	DeltaPct float64 `json:"delta_pct,omitempty"`
	Detail   string  `json:"detail"`
}

// key identifies a finding across runs for baseline set-comparison;
// DeltaPct and Detail stay out so a drifting magnitude is a metric
// regression, not a "new" finding.
func (f Finding) key() string {
	return f.Scenario + "\x00" + f.Kind + "\x00" + f.Governor + "\x00" + f.Reference
}

// Report is one differential pass over a corpus.
type Report struct {
	N            int       `json:"n"`
	Seed         int64     `json:"seed"`
	CorpusDigest string    `json:"corpus_digest"`
	Governors    []string  `json:"governors"`
	Scenarios    int       `json:"scenarios"`
	Duplicates   int       `json:"duplicates"`
	Cells        []Cell    `json:"cells"`
	Findings     []Finding `json:"findings"`
}

// FindingsDigest is the content address of the findings list — the
// second half of the bit-determinism gate (corpus digest covers what
// ran; this covers what was concluded).
func (r *Report) FindingsDigest() string {
	raw, err := json.Marshal(r.Findings)
	if err != nil {
		panic(fmt.Sprintf("fuzz: findings marshal: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// CellSpec maps one corpus entry × governor onto the RunSpec its cell
// executes: an inline scenario_def "run" spec with the fuzzer's run
// parameters.
func CellSpec(e Entry, gov string, cfg Config) service.RunSpec {
	cfg = cfg.withDefaults()
	def := e.Def
	return service.RunSpec{
		Experiment:  "run",
		ScenarioDef: &def,
		Governor:    gov,
		Cores:       cfg.Cores,
		Scale:       cfg.Scale,
		Reps:        cfg.Reps,
		Seed:        e.Seed,
		TinvSec:     cfg.TinvSec,
		WarmupSec:   cfg.WarmupSec,
	}.Normalized()
}

// Run executes the differential pass: every corpus entry under every
// configured governor, fanned over the backends round-robin with bounded
// concurrency, then analyzed into findings. Cell failures become
// findings, not errors — the only error paths are context cancellation
// and an empty backend set.
func Run(ctx context.Context, backends []orchestrator.Backend, corpus *Corpus, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(backends) == 0 {
		return nil, fmt.Errorf("fuzz: no backends")
	}
	govs := cfg.Governors
	cells := make([]Cell, len(corpus.Entries)*len(govs))
	pool := runner.Pool{Workers: cfg.Workers}
	err := pool.ForEach(ctx, len(cells), func(ctx context.Context, i int) error {
		e := corpus.Entries[i/len(govs)]
		gov := govs[i%len(govs)]
		cell := Cell{Scenario: e.Def.Name, Governor: gov}
		res, err := backends[i%len(backends)].Run(ctx, CellSpec(e, gov, cfg))
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			cell.Err = err.Error()
			cells[i] = cell
			return nil
		}
		cell.Outcome = string(res.Outcome)
		sec, joules, err := meanMetrics(res.Body)
		if err != nil {
			cell.Err = err.Error()
		} else {
			cell.Seconds, cell.Joules = sec, joules
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		N:            corpus.Requested,
		Seed:         corpus.Seed,
		CorpusDigest: corpus.Digest(),
		Governors:    govs,
		Scenarios:    len(corpus.Entries),
		Duplicates:   corpus.Duplicates,
		Cells:        cells,
	}
	rep.Findings = analyze(corpus, cells, cfg)
	return rep, nil
}

// meanMetrics decodes one cell's canonical report bytes and averages the
// run columns over its repetition rows.
func meanMetrics(body []byte) (seconds, joules float64, err error) {
	rep, err := report.Decode(body)
	if err != nil {
		return 0, 0, err
	}
	secs, err := rep.Floats(experiments.RunColSeconds)
	if err != nil {
		return 0, 0, err
	}
	js, err := rep.Floats(experiments.RunColJoules)
	if err != nil {
		return 0, 0, err
	}
	if len(secs) == 0 || len(js) != len(secs) {
		return 0, 0, fmt.Errorf("fuzz: run report has %d seconds / %d joules rows", len(secs), len(js))
	}
	for i := range secs {
		seconds += secs[i]
		joules += js[i]
	}
	n := float64(len(secs))
	return seconds / n, joules / n, nil
}

// analyze derives findings from the cell grid: pure, order-deterministic
// (corpus order × governor order), no clock, no randomness.
func analyze(corpus *Corpus, cells []Cell, cfg Config) []Finding {
	govs := cfg.Governors
	findings := []Finding{}
	for i, e := range corpus.Entries {
		row := map[string]Cell{}
		for j, g := range govs {
			c := cells[i*len(govs)+j]
			row[g] = c
			if c.Err != "" {
				findings = append(findings, Finding{
					Scenario: e.Def.Name,
					Kind:     KindError,
					Governor: g,
					Detail:   c.Err,
				})
			}
		}
		ok := func(g string) (Cell, bool) {
			c, present := row[g]
			return c, present && c.Err == ""
		}
		// Inversions: the adaptive daemon must not burn measurably more
		// energy than the non-adaptive references it exists to beat.
		if cf, cok := ok(governor.Cuttlefish); cok {
			for _, ref := range []string{governor.Default, governor.Static} {
				rc, rok := ok(ref)
				if !rok {
					continue
				}
				if cf.Joules > rc.Joules*(1+cfg.InversionTol) {
					pct := 100 * (cf.Joules/rc.Joules - 1)
					findings = append(findings, Finding{
						Scenario:  e.Def.Name,
						Kind:      KindInversion,
						Governor:  governor.Cuttlefish,
						Reference: ref,
						DeltaPct:  pct,
						Detail:    fmt.Sprintf("cuttlefish uses %.1f%% more energy than %s (%.1f J vs %.1f J)", pct, ref, cf.Joules, rc.Joules),
					})
				}
			}
			if dc, dok := ok(governor.Default); dok && cf.Seconds > dc.Seconds*(1+cfg.SlowdownTol) {
				pct := 100 * (cf.Seconds/dc.Seconds - 1)
				findings = append(findings, Finding{
					Scenario:  e.Def.Name,
					Kind:      KindSlowdown,
					Governor:  governor.Cuttlefish,
					Reference: governor.Default,
					DeltaPct:  pct,
					Detail:    fmt.Sprintf("cuttlefish runs %.1f%% longer than default (%.2f s vs %.2f s)", pct, cf.Seconds, dc.Seconds),
				})
			}
		}
		// Anomaly: minimum frequencies finishing ahead of maximum
		// frequencies says the simulator (or a governor) misbehaved.
		if ps, pok := ok(governor.Powersave); pok {
			if dc, dok := ok(governor.Default); dok && ps.Seconds < dc.Seconds*(1-cfg.InversionTol) {
				pct := 100 * (1 - ps.Seconds/dc.Seconds)
				findings = append(findings, Finding{
					Scenario:  e.Def.Name,
					Kind:      KindAnomaly,
					Governor:  governor.Powersave,
					Reference: governor.Default,
					DeltaPct:  pct,
					Detail:    fmt.Sprintf("powersave finishes %.1f%% faster than default (%.2f s vs %.2f s)", pct, ps.Seconds, dc.Seconds),
				})
			}
		}
	}
	sort.SliceStable(findings, func(a, b int) bool { return findings[a].key() < findings[b].key() })
	return findings
}

// RunReport renders the findings as the structured report `cuttlefish
// fuzz` prints: one row per finding, digests and corpus statistics in
// Meta. It contains no timing, host or cache-outcome data, so two passes
// over the same corpus emit byte-identical documents — the property
// cmd/cuttlefish's TestFuzzPassDeterministic compares directly.
func (r *Report) RunReport() *report.RunReport {
	rep := report.New("fuzz", "scenario", "kind", "governor", "reference", "delta_pct", "detail")
	rep.Title = fmt.Sprintf("fuzz: %d scenario(s) × %d governor(s), %d finding(s)",
		r.Scenarios, len(r.Governors), len(r.Findings))
	rep.Governors = r.Governors
	rep.Meta = map[string]any{
		"n":               r.N,
		"seed":            r.Seed,
		"scenarios":       r.Scenarios,
		"duplicates":      r.Duplicates,
		"cells":           len(r.Cells),
		"corpus_digest":   r.CorpusDigest,
		"findings_digest": r.FindingsDigest(),
	}
	for _, f := range r.Findings {
		var delta any
		if f.DeltaPct != 0 {
			delta = f.DeltaPct
		}
		rep.AddRow(f.Scenario, f.Kind, f.Governor, f.Reference, delta, f.Detail)
	}
	return rep
}
