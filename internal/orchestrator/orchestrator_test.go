package orchestrator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// specReport builds the deterministic canned report every test backend
// returns for a spec: a pure function of the spec, so any two backends
// (or cache tiers) serving the same spec are byte-identical — mirroring
// the real engine's determinism contract.
func specReport(spec service.RunSpec) *report.RunReport {
	rep := report.New("run", "benchmark", "governor", "rep", "seconds", "joules")
	seconds := spec.Scale*100 + float64(spec.Seed)
	joules := seconds * float64(spec.Cores)
	if spec.Governor == "cuttlefish" {
		joules *= 0.8 // give the comparison something to rank
		seconds *= 1.02
	}
	for r := 0; r < spec.Reps; r++ {
		rep.AddRow(spec.Benchmark, spec.Governor, r, seconds, joules)
	}
	return rep
}

func specExecutor(_ context.Context, spec service.RunSpec) (*report.RunReport, error) {
	return specReport(spec), nil
}

// stubBackend serves specReport bodies, optionally dying (failing every
// call) after a set number of successes — the kill-one-mid-sweep case.
// dieAfter < 0 means dead from the start.
type stubBackend struct {
	name     string
	dieAfter int64         // 0 = immortal
	latency  time.Duration // keeps runs in flight so load spreads
	// died, when non-nil, is closed by the first failed call.
	died    chan struct{}
	dieOnce sync.Once
	// hold, when non-nil, parks every call until it is closed, pinning
	// this backend's in-flight count so dispatch goes elsewhere.
	hold      <-chan struct{}
	calls     atomic.Int64
	successes atomic.Int64
}

func (b *stubBackend) Name() string { return b.name }

func (b *stubBackend) Run(ctx context.Context, spec service.RunSpec) (service.Result, error) {
	n := b.calls.Add(1)
	if b.dieAfter != 0 && n > b.dieAfter {
		if b.died != nil {
			b.dieOnce.Do(func() { close(b.died) })
		}
		return service.Result{}, errors.New("connection refused (backend down)")
	}
	if b.hold != nil {
		select {
		case <-b.hold:
		case <-ctx.Done():
			return service.Result{}, ctx.Err()
		}
	}
	if b.latency > 0 {
		time.Sleep(b.latency)
	}
	body, err := specReport(spec).Encode()
	if err != nil {
		return service.Result{}, err
	}
	b.successes.Add(1)
	return service.Result{Hash: spec.Hash(), Outcome: service.OutcomeMiss, Body: body}, nil
}

func smallSweep() SweepSpec {
	return SweepSpec{
		Name: "test",
		Axes: Axes{
			Benchmarks: []string{"UTS", "SOR-irt"},
			Governors:  []string{"default", "cuttlefish"},
			Seeds:      Axis{Values: []float64{1, 2, 3}},
		},
	}
}

func TestSweepSpreadsAcrossBackends(t *testing.T) {
	a := &stubBackend{name: "a", latency: 5 * time.Millisecond}
	b := &stubBackend{name: "b", latency: 5 * time.Millisecond}
	o, err := New(Config{Backends: []Backend{a, b}, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Specs != 12 || res.Summary.Executed != 12 || res.Summary.Failed != 0 {
		t.Fatalf("summary = %s", res.Summary)
	}
	if a.successes.Load() == 0 || b.successes.Load() == 0 {
		t.Errorf("least-loaded dispatch left a backend idle: a=%d b=%d", a.successes.Load(), b.successes.Load())
	}
	if a.successes.Load()+b.successes.Load() != 12 {
		t.Errorf("total runs = %d, want 12", a.successes.Load()+b.successes.Load())
	}
}

// TestFailoverWhenBackendDiesMidSweep is the acceptance scenario in
// miniature: one of two backends dies partway, the sweep still
// completes, and its aggregated report is byte-identical to a
// single-backend run of the same sweep.
func TestFailoverWhenBackendDiesMidSweep(t *testing.T) {
	// The healthy backend holds its calls until the dying one has failed
	// once. While it holds a call its in-flight count stays above the
	// dying backend's, so least-loaded dispatch must hand the dying
	// backend its fatal 4th call however the goroutines are scheduled.
	died := make(chan struct{})
	dying := &stubBackend{name: "dying", dieAfter: 3, died: died}
	healthy := &stubBackend{name: "healthy", hold: died}
	o, err := New(Config{Backends: []Backend{dying, healthy}, Concurrency: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatalf("sweep must survive a dying backend: %v", err)
	}
	if res.Summary.Failed != 0 || res.Summary.Failovers == 0 {
		t.Fatalf("summary = %s; want zero failed with observed failovers", res.Summary)
	}
	repA, err := Aggregate("test", res.Results)
	if err != nil {
		t.Fatal(err)
	}

	solo, err := New(Config{Backends: []Backend{&stubBackend{name: "solo"}}})
	if err != nil {
		t.Fatal(err)
	}
	resSolo, err := solo.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Aggregate("test", resSolo.Results)
	if err != nil {
		t.Fatal(err)
	}
	bytesA, _ := repA.Encode()
	bytesB, _ := repB.Encode()
	if !bytes.Equal(bytesA, bytesB) {
		t.Errorf("failover report differs from single-backend report:\n%s\nvs\n%s", bytesA, bytesB)
	}
}

func TestAllBackendsDownSurfacesFailure(t *testing.T) {
	dead := &stubBackend{name: "dead", dieAfter: -1}
	o, err := New(Config{Backends: []Backend{dead}, Attempts: 2, RetryBase: time.Millisecond, RetryMax: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err == nil {
		t.Fatal("want an error when every backend is down")
	}
	if res == nil || res.Summary.Failed != res.Summary.Specs {
		t.Fatalf("summary = %v, want every spec failed", res)
	}
	if _, aggErr := Aggregate("test", res.Results); aggErr == nil {
		t.Error("aggregating failed results must error")
	}
}

func TestLocalBackendRunsSweep(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64, Executor: specExecutor})
	t.Cleanup(svc.Close)
	o, err := New(Config{Backends: []Backend{&LocalBackend{Service: svc}}, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Aggregate("local", res.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("aggregated %d rows, want 12", len(rep.Rows))
	}
	// The canned executor makes cuttlefish cheaper on energy and default
	// faster; in every cell both rows are Pareto-optimal and exactly one
	// wins each axis.
	for _, row := range rep.Rows {
		gov := row["governor"].(string)
		if be := row["best_energy"].(bool); be != (gov == "cuttlefish") {
			t.Errorf("best_energy[%s] = %v", gov, be)
		}
		if br := row["best_runtime"].(bool); br != (gov == "default") {
			t.Errorf("best_runtime[%s] = %v", gov, br)
		}
		if !row["pareto"].(bool) {
			t.Errorf("row %v should be on the Pareto front", row)
		}
	}
}

// TestHTTPFailoverWithSharedStore is the full acceptance path over real
// HTTP: two cfserve-equivalent servers share one persistent store, one
// is killed mid-sweep, the sweep completes via failover, and a warm
// re-run executes zero simulations.
func TestHTTPFailoverWithSharedStore(t *testing.T) {
	dir := t.TempDir()
	newServer := func() (*service.Service, *httptest.Server) {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Workers: 2, QueueDepth: 64, Executor: specExecutor, Store: st})
		srv := httptest.NewServer(service.NewHandler(svc))
		t.Cleanup(func() { srv.Close(); svc.Close() })
		return svc, srv
	}
	_, srvA := newServer()
	svcB, srvB := newServer()

	var kill sync.Once
	o, err := New(Config{
		Backends:    []Backend{NewRemoteBackend(srvA.URL), NewRemoteBackend(srvB.URL)},
		Concurrency: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		OnEvent: func(ev Event) {
			if ev.Err == nil && ev.Done == 3 {
				// Kill backend A mid-sweep, severing live connections.
				kill.Do(func() {
					srvA.CloseClientConnections()
					srvA.Close()
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatalf("sweep must complete via failover: %v", err)
	}
	rep1, err := Aggregate("http", res.Results)
	if err != nil {
		t.Fatal(err)
	}

	// Warm re-run against the surviving backend only: every spec must be
	// served from a cache tier (zero executions), and the aggregated
	// report must be byte-identical.
	before := svcB.Stats()
	o2, err := New(Config{Backends: []Backend{NewRemoteBackend(srvB.URL)}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := o2.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.Executed != 0 {
		t.Errorf("warm re-run executed %d spec(s), want 0 (summary: %s)", res2.Summary.Executed, res2.Summary)
	}
	after := svcB.Stats()
	if after.Misses != before.Misses || after.Completed != before.Completed {
		t.Errorf("surviving backend executed %d new run(s), want 0", after.Completed-before.Completed)
	}
	rep2, err := Aggregate("http", res2.Results)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := rep1.Encode()
	b2, _ := rep2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Error("warm re-run report differs from the failover run's report")
	}
}

func TestProgressEventsCoverEverySpec(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	o, err := New(Config{Backends: []Backend{&stubBackend{name: "a"}}, OnEvent: func(ev Event) {
		if ev.Err == nil {
			mu.Lock()
			dones = append(dones, ev.Done)
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background(), smallSweep()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != 12 {
		t.Fatalf("saw %d completion events, want 12", len(dones))
	}
	seen := map[int]bool{}
	for _, d := range dones {
		seen[d] = true
	}
	for i := 1; i <= 12; i++ {
		if !seen[i] {
			t.Errorf("no completion event with Done=%d", i)
		}
	}
}

func TestNewRejectsNoBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New must reject an empty backend set")
	}
}

// TestDuplicateCellsSurfaceInEventsAndSummary pins the silent-shrinkage
// fix end to end: a sweep whose axes collapse under hash-dedup must
// carry the dropped count on every progress event and in the summary,
// instead of just reporting a smaller Total.
func TestDuplicateCellsSurfaceInEventsAndSummary(t *testing.T) {
	sweep := SweepSpec{
		Axes: Axes{
			Benchmarks: []string{"UTS"},
			Seeds:      Axis{Values: []float64{1, 1, 2}}, // duplicate draw, as a rounded sampled axis would produce

		},
	}
	var mu sync.Mutex
	var dupSeen []int
	o, err := New(Config{Backends: []Backend{&stubBackend{name: "a"}}, OnEvent: func(ev Event) {
		mu.Lock()
		dupSeen = append(dupSeen, ev.Duplicates)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Specs != 2 || res.Summary.Duplicates != 1 {
		t.Errorf("summary specs=%d duplicates=%d, want 2 and 1", res.Summary.Specs, res.Summary.Duplicates)
	}
	if got := res.Summary.String(); !strings.Contains(got, "1 duplicate cell(s) dropped") {
		t.Errorf("summary line %q must mention the dropped duplicates", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dupSeen) == 0 {
		t.Fatal("no events observed")
	}
	for _, d := range dupSeen {
		if d != 1 {
			t.Errorf("event Duplicates = %d, want 1 on every event", d)
		}
	}
}

func TestSummaryStringIsGreppable(t *testing.T) {
	s := Summary{Specs: 12, Executed: 0, Hits: 4, DiskHits: 8,
		Backends: map[string]BackendStats{"b": {Runs: 12}}}
	got := s.String()
	want := "12 spec(s), executed: 0, cache hits: 4, disk hits: 8, failovers: 0, failed: 0 [b 12 run(s) 0 failure(s)]"
	if got != want {
		t.Errorf("Summary.String() = %q, want %q", got, want)
	}
}

// sanity: the canned report body is a pure function of the spec.
func TestSpecReportDeterminism(t *testing.T) {
	spec := service.RunSpec{Benchmark: "UTS", Seed: 3}.Normalized()
	b1, _ := specReport(spec).Encode()
	b2, _ := specReport(spec).Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal(fmt.Sprint("specReport is not deterministic"))
	}
}

// TestBackendHealthAccounting drives a sweep serially so the dispatch
// order is deterministic: backend 0 serves one spec then dies, every
// later spec fails over to the healthy backend. The per-backend stats
// must show the dying backend quarantined exactly once (the third
// consecutive failure, not every failure after it), the healthy backend
// absorbing the retries, and attempt latency percentiles for both.
func TestBackendHealthAccounting(t *testing.T) {
	dying := &stubBackend{name: "dying", dieAfter: 1}
	healthy := &stubBackend{name: "healthy"}
	o, err := New(Config{Backends: []Backend{dying, healthy}, Concurrency: 1,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Summary.Backends["dying"]
	h := res.Summary.Backends["healthy"]
	if d.Failures != 3 || d.Quarantines != 1 {
		t.Errorf("dying = %+v, want 3 failures and exactly 1 quarantine", d)
	}
	if h.Retries != 3 || h.Failures != 0 {
		t.Errorf("healthy = %+v, want 3 retry dispatches and no failures", h)
	}
	for name, b := range res.Summary.Backends {
		if b.P50Ms <= 0 || b.P95Ms < b.P50Ms {
			t.Errorf("%s latency percentiles = p50 %v p95 %v, want 0 < p50 <= p95", name, b.P50Ms, b.P95Ms)
		}
	}
	line := res.Summary.String()
	for _, want := range []string{"retry(s)", "quarantine(s)", "p50", "p95"} {
		if !strings.Contains(line, want) {
			t.Errorf("Summary.String() = %q, missing %q", line, want)
		}
	}
}
