package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// Config tunes a sweep run.
type Config struct {
	// Backends execute the specs; at least one is required.
	Backends []Backend
	// Concurrency bounds in-flight specs across all backends
	// (0 = 2 × len(Backends)).
	Concurrency int
	// Attempts caps executions tried per spec, across failovers
	// (0 = 2 × len(Backends) + 1).
	Attempts int
	// RetryBase is the first inter-attempt backoff; attempt k waits
	// RetryBase·2^k jittered, capped at RetryMax (0 = 200ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the orchestrator's private backoff-jitter source,
	// making inter-attempt delays reproducible in tests (0 = a one-time
	// clock-derived seed; the jitter never touches the global rand
	// source, so concurrent sweeps cannot contend on it).
	RetrySeed int64
	// OnEvent observes progress (completed specs and failover attempts);
	// nil means silent. Called from dispatcher goroutines, serialized.
	OnEvent func(Event)
}

// Event is one progress observation.
type Event struct {
	// Done and Total count completed and expanded specs; Done is 0 for
	// failover (attempt-failed) events.
	Done, Total int
	// Duplicates counts grid cells the expansion dropped because they
	// hashed identically to an earlier cell; it is constant across a
	// sweep's events so observers can surface why Total is smaller than
	// the axes' cross-product.
	Duplicates int
	Spec       service.RunSpec
	Hash       string
	Backend    string
	Outcome    service.Outcome
	Attempt    int
	// Memo is the backend's prefix-snapshot detail for an executed spec;
	// nil when the backend ran without memoization or served a cache hit.
	Memo *memo.RunStatsView
	// Convergence is the backend's flight-recorder summary for an
	// executed spec; nil when the backend ran without timelines or
	// served a cache hit.
	Convergence *timeline.Convergence
	// Err is the attempt's failure; nil for completion events.
	Err error
}

// SpecResult is one spec's final fate.
type SpecResult struct {
	Spec    service.RunSpec
	Hash    string
	Body    []byte
	Outcome service.Outcome
	// Backend served the final successful attempt.
	Backend string
	// Attempts counts executions tried, 1 for a first-try success.
	Attempts int
	// Memo is the serving backend's prefix-snapshot detail; nil when the
	// spec was a cache hit or the backend ran without memoization.
	Memo *memo.RunStatsView
	// Convergence is the serving backend's flight-recorder summary; nil
	// when the spec was a cache hit or the backend ran without timelines.
	Convergence *timeline.Convergence
	// Err is non-nil when every attempt failed; Body is then nil.
	Err error
}

// BackendStats is one backend's tally over a sweep: dispatch counts,
// failure/retry/quarantine counts, and attempt-latency percentiles
// (log-bucket upper bounds, milliseconds) from the backend's lifetime
// latency histogram.
type BackendStats struct {
	Runs        int     `json:"runs"`
	Failures    int     `json:"failures"`
	Retries     int     `json:"retries,omitempty"`
	Quarantines int     `json:"quarantines,omitempty"`
	P50Ms       float64 `json:"p50_ms,omitempty"`
	P95Ms       float64 `json:"p95_ms,omitempty"`
}

// Summary is a sweep's operational outcome. Executed counts specs a
// backend actually simulated (miss or coalesced); Hits/DiskHits came
// from cache tiers and cost nothing. Duplicates counts grid cells the
// expansion dropped as hash-identical to earlier cells — reported so a
// sweep never silently claims fewer cells than its cross-product.
type Summary struct {
	Specs      int                     `json:"specs"`
	Duplicates int                     `json:"duplicates,omitempty"`
	Executed   int                     `json:"executed"`
	Hits       int                     `json:"hits"`
	DiskHits   int                     `json:"disk_hits"`
	Failovers  int                     `json:"failovers"`
	Failed     int                     `json:"failed"`
	Backends   map[string]BackendStats `json:"backends"`
	// Memo aggregates the backends' prefix-snapshot activity across all
	// executed specs; nil when no backend reported memo detail.
	Memo *memo.RunStatsView `json:"memo,omitempty"`
	// Convergence reduces the executed specs' flight-recorder summaries
	// per governor (cells with no governor fall under "default"):
	// run-weighted mean time-to-stable-frequency, total exploration
	// quanta and total energy spent exploring. Derived purely from
	// timeline data, so it never appears when backends run without
	// timelines — and never affects Aggregate()'s comparison bytes.
	Convergence map[string]timeline.Convergence `json:"convergence,omitempty"`
}

// String renders the one-line operational summary the CLI prints (and
// the CI smoke job greps): counts are colon/comma-delimited so
// "executed: 0" matches unambiguously. The duplicate-cell note appears
// only when cells were actually dropped, keeping the common line stable.
func (s Summary) String() string {
	names := make([]string, 0, len(s.Backends))
	for n := range s.Backends {
		names = append(names, n)
	}
	sort.Strings(names)
	per := make([]string, len(names))
	for i, n := range names {
		b := s.Backends[n]
		per[i] = fmt.Sprintf("%s %d run(s) %d failure(s)", n, b.Runs, b.Failures)
		// Retry/quarantine/latency detail appears only when present, so
		// the common all-healthy line (which tests and CI grep) is stable.
		if b.Retries > 0 || b.Quarantines > 0 {
			per[i] += fmt.Sprintf(" %d retry(s) %d quarantine(s)", b.Retries, b.Quarantines)
		}
		if b.P95Ms > 0 {
			per[i] += fmt.Sprintf(" p50 %.0fms p95 %.0fms", b.P50Ms, b.P95Ms)
		}
	}
	specs := fmt.Sprintf("%d spec(s)", s.Specs)
	if s.Duplicates > 0 {
		specs = fmt.Sprintf("%d spec(s) (%d duplicate cell(s) dropped)", s.Specs, s.Duplicates)
	}
	memoNote := ""
	if m := s.Memo; m != nil && (m.PrefixHits > 0 || m.SnapshotsStored > 0) {
		memoNote = fmt.Sprintf(", memo: %d prefix hit(s) skipping %d/%d quanta, %d snapshot(s) stored",
			m.PrefixHits, m.QuantaSaved, m.QuantaTotal, m.SnapshotsStored)
	}
	convNote := ""
	if len(s.Convergence) > 0 {
		govs := make([]string, 0, len(s.Convergence))
		for g := range s.Convergence {
			govs = append(govs, g)
		}
		sort.Strings(govs)
		parts := make([]string, len(govs))
		for i, g := range govs {
			c := s.Convergence[g]
			parts[i] = fmt.Sprintf("%s stable %.2fs, %d exploration quanta, %.1f J exploring (n=%d)",
				g, c.TimeToStableSec, c.ExplorationQuanta, c.ExplorationEnergyJ, c.Runs)
		}
		convNote = ", convergence: " + strings.Join(parts, "; ")
	}
	return fmt.Sprintf("%s, executed: %d, cache hits: %d, disk hits: %d, failovers: %d, failed: %d%s%s [%s]",
		specs, s.Executed, s.Hits, s.DiskHits, s.Failovers, s.Failed, memoNote, convNote, strings.Join(per, "; "))
}

// SweepResult is a completed sweep: per-spec results in expansion
// order, the aggregated comparison report, and the summary.
type SweepResult struct {
	Specs   []service.RunSpec
	Results []SpecResult
	Summary Summary
}

// backendState is the dispatcher's book-keeping for one backend.
type backendState struct {
	inflight int
	// consecutiveFails quarantines a backend after quarantineAfter
	// failures in a row; any success clears it.
	consecutiveFails int
	runs             int
	failures         int
	// retries counts dispatches that were re-attempts of a spec (attempt
	// > 1); quarantines counts transitions into the sidelined state — a
	// flapping backend quarantined twice reports 2, not its failure total.
	retries     int
	quarantines int
	// lat holds every attempt's wall duration; the summary reports its
	// p50/p95 so a slow backend is visible even when it never fails.
	lat *stats.Histogram
}

// quarantineAfter is how many consecutive failures sideline a backend
// while healthy alternatives remain.
const quarantineAfter = 3

// Orchestrator dispatches expanded sweeps over its backends.
type Orchestrator struct {
	cfg    Config
	jitter *service.Jitter
	mu     sync.Mutex
	states []backendState
	evMu   sync.Mutex
}

// New validates the configuration and builds an orchestrator.
func New(cfg Config) (*Orchestrator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("orchestrator: at least one backend is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2 * len(cfg.Backends)
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2*len(cfg.Backends) + 1
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	states := make([]backendState, len(cfg.Backends))
	for i := range states {
		states[i].lat = stats.NewHistogram()
	}
	return &Orchestrator{
		cfg:    cfg,
		jitter: service.NewJitter(cfg.RetrySeed),
		states: states,
	}, nil
}

// Run expands the sweep and executes every spec, failing over between
// backends as needed. It returns the per-spec results even when some
// specs ultimately failed; the error then summarizes the failures.
func (o *Orchestrator) Run(ctx context.Context, sweep SweepSpec) (*SweepResult, error) {
	specs, dropped, err := sweep.Expand()
	if err != nil {
		return nil, err
	}
	return o.run(ctx, specs, dropped)
}

// run drives an expanded spec list; dropped is the expansion's
// duplicate-cell count, carried into every event and the summary.
func (o *Orchestrator) run(ctx context.Context, specs []service.RunSpec, dropped int) (*SweepResult, error) {
	res := &SweepResult{
		Specs:   specs,
		Results: make([]SpecResult, len(specs)),
		Summary: Summary{Specs: len(specs), Duplicates: dropped, Backends: map[string]BackendStats{}},
	}
	var done int
	var doneMu sync.Mutex

	width := o.cfg.Concurrency
	if width > len(specs) {
		width = len(specs)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := o.runSpec(ctx, specs[i], len(specs), dropped, &done, &doneMu)
				res.Results[i] = r
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()

	var firstErr error
	for _, r := range res.Results {
		switch r.Outcome {
		case service.OutcomeHit:
			res.Summary.Hits++
		case service.OutcomeDisk:
			res.Summary.DiskHits++
		case service.OutcomeMiss, service.OutcomeCoalesced:
			res.Summary.Executed++
		}
		if r.Attempts > 1 {
			res.Summary.Failovers += r.Attempts - 1
		}
		if r.Memo != nil {
			if res.Summary.Memo == nil {
				res.Summary.Memo = &memo.RunStatsView{}
			}
			m := res.Summary.Memo
			m.Runs += r.Memo.Runs
			m.PrefixHits += r.Memo.PrefixHits
			m.QuantaSaved += r.Memo.QuantaSaved
			m.QuantaTotal += r.Memo.QuantaTotal
			m.SnapshotsStored += r.Memo.SnapshotsStored
		}
		if r.Convergence != nil {
			gov := r.Spec.Governor
			if gov == "" {
				gov = "default"
			}
			if res.Summary.Convergence == nil {
				res.Summary.Convergence = map[string]timeline.Convergence{}
			}
			agg := res.Summary.Convergence[gov]
			agg.Add(*r.Convergence)
			res.Summary.Convergence[gov] = agg
		}
		if r.Err != nil {
			res.Summary.Failed++
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	}
	o.mu.Lock()
	for i := range o.states {
		st := &o.states[i]
		name := o.cfg.Backends[i].Name()
		agg := res.Summary.Backends[name]
		agg.Runs += st.runs
		agg.Failures += st.failures
		agg.Retries += st.retries
		agg.Quarantines += st.quarantines
		if st.lat.Count() > 0 {
			agg.P50Ms = st.lat.Quantile(0.5) * 1e3
			agg.P95Ms = st.lat.Quantile(0.95) * 1e3
		}
		res.Summary.Backends[name] = agg
	}
	o.mu.Unlock()
	if res.Summary.Failed > 0 {
		return res, fmt.Errorf("orchestrator: %d of %d spec(s) failed on every backend; first: %w",
			res.Summary.Failed, len(specs), firstErr)
	}
	return res, nil
}

// runSpec drives one spec to completion: pick the least-loaded healthy
// backend, run, and on failure retry — preferring backends not yet
// tried this spec — until the attempt budget runs out.
func (o *Orchestrator) runSpec(ctx context.Context, spec service.RunSpec, total, dropped int, done *int, doneMu *sync.Mutex) SpecResult {
	hash := spec.Hash()
	out := SpecResult{Spec: spec, Hash: hash}
	tried := make(map[int]bool)
	var lastErr error
	for attempt := 1; attempt <= o.cfg.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			out.Attempts, out.Err = attempt-1, err
			return out
		}
		if attempt > 1 {
			select {
			case <-time.After(o.jitter.Backoff(attempt-2, o.cfg.RetryBase, o.cfg.RetryMax)):
			case <-ctx.Done():
				out.Attempts, out.Err = attempt-1, ctx.Err()
				return out
			}
		}
		bi := o.acquire(tried)
		backend := o.cfg.Backends[bi]
		t0 := time.Now()
		res, err := backend.Run(ctx, spec)
		o.release(bi, err == nil, time.Since(t0), attempt > 1)
		out.Attempts = attempt
		if err == nil {
			out.Body, out.Outcome, out.Backend, out.Memo = res.Body, res.Outcome, backend.Name(), res.Memo
			out.Convergence = res.Convergence
			doneMu.Lock()
			*done++
			d := *done
			doneMu.Unlock()
			o.emit(Event{Done: d, Total: total, Duplicates: dropped, Spec: spec, Hash: hash, Backend: backend.Name(), Outcome: res.Outcome, Attempt: attempt, Memo: res.Memo, Convergence: res.Convergence})
			return out
		}
		lastErr = fmt.Errorf("%s: %w", backend.Name(), err)
		tried[bi] = true
		if len(tried) == len(o.cfg.Backends) {
			// Every backend failed this spec once; allow re-visits.
			tried = make(map[int]bool)
		}
		o.emit(Event{Total: total, Duplicates: dropped, Spec: spec, Hash: hash, Backend: backend.Name(), Attempt: attempt, Err: err})
	}
	out.Err = fmt.Errorf("spec %s exhausted %d attempt(s): %w", hash[:12], o.cfg.Attempts, lastErr)
	return out
}

// acquire picks the least-loaded backend, preferring ones that are
// neither quarantined nor already tried for the current spec, and
// increments its in-flight count. Preference degrades gracefully: if
// every backend is quarantined or tried, the constraint is dropped
// rather than deadlocking the sweep.
func (o *Orchestrator) acquire(tried map[int]bool) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	pick := -1
	for pass := 0; pass < 3 && pick < 0; pass++ {
		for i := range o.states {
			if pass < 2 && tried[i] {
				continue
			}
			if pass < 1 && o.states[i].consecutiveFails >= quarantineAfter {
				continue
			}
			if pick < 0 || o.states[i].inflight < o.states[pick].inflight {
				pick = i
			}
		}
	}
	o.states[pick].inflight++
	return pick
}

// release returns a backend slot and updates its health record: the
// attempt's wall duration, whether it was a retry dispatch, and — on the
// exact failure that crosses the quarantine threshold — one quarantine.
func (o *Orchestrator) release(i int, success bool, dur time.Duration, retry bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := &o.states[i]
	st.inflight--
	st.runs++
	st.lat.Observe(dur.Seconds())
	if retry {
		st.retries++
	}
	if success {
		st.consecutiveFails = 0
	} else {
		st.consecutiveFails++
		st.failures++
		if st.consecutiveFails == quarantineAfter {
			st.quarantines++
		}
	}
}

// emit serializes OnEvent callbacks so observers need no locking.
func (o *Orchestrator) emit(ev Event) {
	if o.cfg.OnEvent == nil {
		return
	}
	o.evMu.Lock()
	defer o.evMu.Unlock()
	o.cfg.OnEvent(ev)
}
