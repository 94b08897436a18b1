// Package orchestrator fans parameter sweeps across simulation
// backends: a declarative SweepSpec expands into normalized
// service.RunSpecs (one per grid point, deduplicated by content hash),
// a least-loaded dispatcher runs them over pluggable backends — the
// in-process service or any number of cfserve instances — with per-spec
// retry and failover, and the results aggregate into one deterministic
// cross-product comparison report.
//
// Because every expanded spec is normalized and content-addressed, the
// orchestrator inherits the service layer's caching for free: a spec
// any backend has ever executed (and persisted) is served from its
// store, so re-running a sweep costs only the grid points that changed.
package orchestrator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/service"
)

// ErrBadSweep tags sweep-spec validation failures.
var ErrBadSweep = errors.New("orchestrator: invalid sweep spec")

// DistSpec is a seeded bounded-support sampler for a randomized axis:
// instead of listing values by hand, an axis draws n of them from a
// Kumaraswamy(a, b) distribution rescaled onto [min, max]. The draw is
// inverse-CDF from a seeded generator, so the expanded values — and
// therefore every generated RunSpec's content hash — are a pure
// function of this spec.
type DistSpec struct {
	Dist string  `json:"dist"` // "kumaraswamy"
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	N    int     `json:"n"`
	Seed int64   `json:"seed"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Axis is one sweep dimension: either an explicit value list
// (JSON: [0.01, 0.02]) or a distribution to sample deterministically
// (JSON: {"dist": "kumaraswamy", "a": 2, "b": 3, "n": 4, ...}).
// An absent axis leaves the corresponding RunSpec field at its base
// value, which normalizes to the serving default.
type Axis struct {
	Values []float64
	Dist   *DistSpec
}

// UnmarshalJSON accepts a number array or a distribution object.
func (a *Axis) UnmarshalJSON(data []byte) error {
	var vals []float64
	if err := json.Unmarshal(data, &vals); err == nil {
		a.Values, a.Dist = vals, nil
		return nil
	}
	var d DistSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("axis must be a number array or a distribution object: %w", err)
	}
	a.Values, a.Dist = nil, &d
	return nil
}

// MarshalJSON round-trips whichever form the axis holds.
func (a Axis) MarshalJSON() ([]byte, error) {
	if a.Dist != nil {
		return json.Marshal(a.Dist)
	}
	return json.Marshal(a.Values)
}

// expand resolves the axis to concrete values; nil means "not swept".
func (a Axis) expand() ([]float64, error) {
	if a.Dist == nil {
		return a.Values, nil
	}
	switch a.Dist.Dist {
	case "kumaraswamy":
		return grid.Kumaraswamy(a.Dist.A, a.Dist.B, a.Dist.N, a.Dist.Seed, a.Dist.Min, a.Dist.Max)
	default:
		return nil, fmt.Errorf("%w: unknown distribution %q (supported: kumaraswamy)", ErrBadSweep, a.Dist.Dist)
	}
}

// Axes are the sweep dimensions. String axes (benchmarks, scenarios,
// governors) are explicit lists; numeric axes may also be sampled
// distributions. Benchmarks and scenarios merge into one workload
// dimension — a sweep may mix Table 1 benchmarks and registered
// scenarios freely.
type Axes struct {
	Benchmarks []string `json:"benchmarks,omitempty"`
	Scenarios  []string `json:"scenarios,omitempty"`
	Governors  []string `json:"governors,omitempty"`
	TinvSec    Axis     `json:"tinv_sec,omitempty"`
	Cores      Axis     `json:"cores,omitempty"`
	Reps       Axis     `json:"reps,omitempty"`
	Seeds      Axis     `json:"seeds,omitempty"`
	Scales     Axis     `json:"scales,omitempty"`
}

// SweepSpec declares a sweep: an experiment, fixed base fields, and the
// axes whose cross product becomes the run set.
type SweepSpec struct {
	// Name labels the sweep in its report title.
	Name string `json:"name,omitempty"`
	// Experiment is the harness every grid point runs ("" = "run").
	Experiment string `json:"experiment,omitempty"`
	// Base carries fixed RunSpec fields every grid point shares (model,
	// warmup, …); axis values override it field-wise.
	Base service.RunSpec `json:"base,omitempty"`
	Axes Axes            `json:"axes"`
}

// ParseSweepSpec decodes a SweepSpec document, rejecting unknown fields
// — a typoed axis silently collapsing the sweep to defaults would be
// expensive to discover after the grid ran.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	var s SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("%w: %v", ErrBadSweep, err)
	}
	return s, nil
}

// numAxis pairs an expanded numeric axis with the RunSpec field it
// overrides; a nil vals slice leaves the base value untouched.
type numAxis struct {
	name string
	vals []float64
	set  func(*service.RunSpec, float64)
}

// workloadSel is one point of the merged workload dimension: either a
// benchmark name, a registered scenario name, or neither (keep the base
// spec's workload, including an inline scenario_def).
type workloadSel struct {
	bench, scen string
}

// workloadAxis merges the benchmarks and scenarios axes into the sweep's
// first dimension, benchmarks first, each in listed order.
func (s SweepSpec) workloadAxis(experiment string) ([]workloadSel, error) {
	if experiment != "run" {
		// Only "run" consults the workload; silently collapsing an
		// explicit axis would hide a spec mistake until after the grid ran.
		if len(s.Axes.Benchmarks) > 0 {
			return nil, fmt.Errorf("%w: experiment %q ignores benchmarks; drop the axis", ErrBadSweep, experiment)
		}
		if len(s.Axes.Scenarios) > 0 {
			return nil, fmt.Errorf("%w: experiment %q ignores scenarios; drop the axis", ErrBadSweep, experiment)
		}
		return []workloadSel{{}}, nil
	}
	var workloads []workloadSel
	for _, b := range s.Axes.Benchmarks {
		workloads = append(workloads, workloadSel{bench: b})
	}
	for _, sc := range s.Axes.Scenarios {
		workloads = append(workloads, workloadSel{scen: sc})
	}
	if len(workloads) == 0 {
		if s.Base.Benchmark == "" && s.Base.Scenario == "" && s.Base.ScenarioDef == nil {
			return nil, fmt.Errorf("%w: a \"run\" sweep needs a benchmarks or scenarios axis (or a base workload)", ErrBadSweep)
		}
		workloads = []workloadSel{{}} // one pass with the base workload
	}
	return workloads, nil
}

// Expand resolves the sweep into its normalized, validated, hash-
// deduplicated RunSpecs, in deterministic row-major axis order
// (workloads × governors × tinv × cores × reps × seeds × scales, the
// workload dimension being benchmarks then scenarios). The second
// return counts grid cells dropped because they hashed identically to
// an earlier cell (e.g. a sampled axis drawing duplicate values after
// integer rounding) — callers surface it so a sweep never silently
// reports fewer cells than its cross-product.
func (s SweepSpec) Expand() ([]service.RunSpec, int, error) {
	experiment := s.Experiment
	if experiment == "" {
		experiment = "run"
	}
	workloads, err := s.workloadAxis(experiment)
	if err != nil {
		return nil, 0, err
	}
	governors := s.Axes.Governors
	if len(governors) == 0 {
		governors = []string{s.Base.Governor}
	}

	numeric := []numAxis{
		{"tinv_sec", nil, func(r *service.RunSpec, v float64) { r.TinvSec = v }},
		{"cores", nil, func(r *service.RunSpec, v float64) { r.Cores = roundInt(v) }},
		{"reps", nil, func(r *service.RunSpec, v float64) { r.Reps = roundInt(v) }},
		{"seeds", nil, func(r *service.RunSpec, v float64) { r.Seed = int64(roundInt(v)) }},
		{"scales", nil, func(r *service.RunSpec, v float64) { r.Scale = v }},
	}
	for i, ax := range []Axis{s.Axes.TinvSec, s.Axes.Cores, s.Axes.Reps, s.Axes.Seeds, s.Axes.Scales} {
		vals, err := ax.expand()
		if err != nil {
			return nil, 0, fmt.Errorf("axis %s: %w", numeric[i].name, err)
		}
		numeric[i].vals = vals
	}

	lens := []int{len(workloads), len(governors)}
	for _, ax := range numeric {
		n := len(ax.vals)
		if n == 0 {
			n = 1 // unswept: one pass with the base value
		}
		lens = append(lens, n)
	}

	specs := make([]service.RunSpec, 0, grid.Size(lens))
	seen := make(map[string]bool)
	dropped := 0
	var expandErr error
	grid.Cross(lens, func(idx []int) {
		if expandErr != nil {
			return
		}
		spec := s.Base
		spec.Experiment = experiment
		if w := workloads[idx[0]]; w.bench != "" || w.scen != "" {
			spec.Benchmark, spec.Scenario, spec.ScenarioDef = w.bench, w.scen, nil
		}
		if g := governors[idx[1]]; g != "" {
			spec.Governor = g
		}
		for i, ax := range numeric {
			if len(ax.vals) > 0 {
				ax.set(&spec, ax.vals[idx[2+i]])
			}
		}
		norm := spec.Normalized()
		if err := norm.Validate(); err != nil {
			expandErr = err
			return
		}
		if h := norm.Hash(); !seen[h] {
			seen[h] = true
			specs = append(specs, norm)
		} else {
			dropped++
		}
	})
	if expandErr != nil {
		return nil, 0, expandErr
	}
	if len(specs) == 0 {
		return nil, 0, fmt.Errorf("%w: the axes expand to zero runs", ErrBadSweep)
	}
	return specs, dropped, nil
}

func roundInt(v float64) int { return int(math.Round(v)) }
