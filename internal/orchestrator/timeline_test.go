package orchestrator

import (
	"context"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/timeline"
)

// convBackend serves specReport bodies with a per-spec convergence
// summary attached, like a timeline-armed cfserve.
type convBackend struct {
	stubBackend
}

func (b *convBackend) Run(ctx context.Context, spec service.RunSpec) (service.Result, error) {
	res, err := b.stubBackend.Run(ctx, spec)
	if err != nil {
		return res, err
	}
	res.Convergence = &timeline.Convergence{
		Runs:               1,
		TimeToStableSec:    2.5,
		ExplorationQuanta:  10,
		ExplorationEnergyJ: 5,
	}
	return res, nil
}

// TestSweepAggregatesConvergence checks the orchestrator reduces per-run
// flight-recorder summaries into per-governor convergence stats on the
// summary, and that the one-line rendering surfaces them.
func TestSweepAggregatesConvergence(t *testing.T) {
	b := &convBackend{stubBackend{name: "a"}}
	o, err := New(Config{Backends: []Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summary.Convergence) != 2 {
		t.Fatalf("convergence map = %+v, want default + cuttlefish", res.Summary.Convergence)
	}
	for _, gov := range []string{"default", "cuttlefish"} {
		c, ok := res.Summary.Convergence[gov]
		// 6 cells per governor (2 benchmarks × 3 seeds), 1 rep each.
		if !ok || c.Runs != 6 || c.ExplorationQuanta != 60 || c.TimeToStableSec != 2.5 {
			t.Errorf("%s convergence = %+v ok=%v, want 6 runs, 60 quanta, stable 2.5", gov, c, ok)
		}
	}
	line := res.Summary.String()
	if !strings.Contains(line, "convergence:") || !strings.Contains(line, "cuttlefish stable 2.50s") {
		t.Errorf("summary line lacks convergence note: %s", line)
	}
	for i, r := range res.Results {
		if r.Convergence == nil {
			t.Errorf("result %d lost its convergence detail", i)
		}
	}
}

// TestSummaryOmitsConvergenceWithoutTimelines pins the common line: a
// backend that reports no convergence adds nothing to the summary, so
// the greppable all-healthy rendering is unchanged.
func TestSummaryOmitsConvergenceWithoutTimelines(t *testing.T) {
	b := &stubBackend{name: "a"}
	o, err := New(Config{Backends: []Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Convergence != nil {
		t.Errorf("convergence = %+v, want nil without timelines", res.Summary.Convergence)
	}
	if strings.Contains(res.Summary.String(), "convergence") {
		t.Errorf("summary line mentions convergence: %s", res.Summary.String())
	}
}

// TestOrchestratorMetrics drives a sweep with one dead backend and reads
// the per-backend counters the sweep summary reports: runs, failures,
// retries and quarantines must reflect the dispatcher's book-keeping.
func TestOrchestratorMetrics(t *testing.T) {
	dying := &stubBackend{name: "dying", dieAfter: -1} // dead from the start
	healthy := &stubBackend{name: "healthy"}
	o, err := New(Config{Backends: []Backend{dying, healthy}, RetryBase: 1, RetryMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	dead, live := res.Summary.Backends["dying"], res.Summary.Backends["healthy"]
	if dead.Quarantines != 1 {
		t.Errorf("dead backend quarantined %d time(s), want exactly once: %+v", dead.Quarantines, res.Summary.Backends)
	}
	if dead.Failures == 0 || dead.Failures != dead.Runs {
		t.Errorf("dead backend: %d failure(s) of %d run(s), want every run failed", dead.Failures, dead.Runs)
	}
	if live.Failures != 0 || live.Runs < res.Summary.Specs {
		t.Errorf("healthy backend: %d run(s), %d failure(s); want ≥ %d runs, none failed", live.Runs, live.Failures, res.Summary.Specs)
	}
	if dead.Retries+live.Retries < dead.Failures {
		t.Errorf("%d retry dispatch(es) for %d failure(s): every failed attempt is retried", dead.Retries+live.Retries, dead.Failures)
	}
}
