package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/timeline"
)

// Executor computes the report for one normalized spec. The default runs
// the in-process experiment harnesses; tests substitute stubs.
type Executor func(ctx context.Context, spec RunSpec) (*report.RunReport, error)

// DefaultExecutor dispatches the spec to the experiment harnesses — the
// same code path the cuttlefish CLI runs in-process.
func DefaultExecutor(_ context.Context, spec RunSpec) (*report.RunReport, error) {
	return experiments.BuildReport(experiments.Options{Spec: spec})
}

// Rejection and lifecycle sentinels; the HTTP layer maps them to status
// codes (429, 503).
var (
	// ErrQueueFull is backpressure: the job queue is at capacity and the
	// request was rejected without queueing. Clients should retry later.
	ErrQueueFull = errors.New("service: job queue full, retry later")
	// ErrClosed rejects submissions during and after shutdown.
	ErrClosed = errors.New("service: shutting down")
	// ErrUnknownJob is returned by Job for IDs never issued or already
	// evicted from the bounded job registry.
	ErrUnknownJob = errors.New("service: unknown job id")
)

// Config sizes a Service. Zero values pick serving-oriented defaults.
type Config struct {
	// Workers is the persistent worker fleet size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet executing; a full
	// queue rejects with ErrQueueFull (0 = 16).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (0 = 256).
	CacheEntries int
	// Executor computes reports (nil = DefaultExecutor).
	Executor Executor
	// Store is the optional persistent tier below the LRU: misses
	// consult it before executing, and every finished execution is
	// written through, so results survive restarts (nil = memory only).
	Store *store.Store
	// Memo is the optional prefix-snapshot tier (internal/memo) below the
	// result cache: a result-cache miss whose workload shares a region
	// prefix with an earlier run restores the last common snapshot and
	// simulates only the suffix. It only applies to the default executor
	// (a custom Executor owns its own run path). Results stay
	// byte-identical with or without it.
	Memo *memo.Tier
	// Metrics is the optional registry GET /metrics scrapes. Families are
	// registered at construction and read the service's own counters at
	// scrape time — /v1/stats and /metrics report from one source of
	// truth. nil disables the endpoint's content, never the service.
	Metrics *obs.Registry
	// Traces is the optional trace store: when set, every request records
	// a span tree (admission → cache/store probes → queue wait → execute →
	// report encode) retrievable at GET /v1/runs/{id}/trace. Traces live
	// strictly outside canonical report bytes and cache keys — results are
	// byte-identical with tracing on or off.
	Traces *obs.TraceStore
	// Profile turns on the engine's wall-clock self-accounting for
	// executed runs (machine.Config.Profile); the numbers surface as span
	// arguments on traced runs. Simulated results are unaffected.
	Profile bool
	// Timelines is the optional flight-recorder store: when set, every
	// executed run (default executor only, like Memo) records a
	// per-quantum machine/governor timeline retrievable at
	// GET /v1/runs/{id}/timeline, merged into the run's trace as counter
	// tracks, and reduced to convergence stats on the Result. Timelines
	// live strictly outside canonical report bytes and cache keys.
	Timelines *timeline.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.Executor == nil {
		c.Executor = DefaultExecutor
	}
	return c
}

// Outcome says how a submission was satisfied.
type Outcome string

const (
	// OutcomeHit served canonical bytes straight from the result cache.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss executed the spec on the worker fleet.
	OutcomeMiss Outcome = "miss"
	// OutcomeCoalesced joined an identical in-flight execution and
	// shared its result.
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeDisk served canonical bytes from the persistent store (an
	// LRU miss that a previous process lifetime had computed); the entry
	// is promoted into the LRU on the way out.
	OutcomeDisk Outcome = "disk"
)

// Result is one satisfied submission: the spec's content hash, how it was
// served, and the canonical report bytes (identical across hit, miss and
// coalesced for the same spec — that is the cache-soundness contract).
// Memo carries the execution's prefix-snapshot activity when the spec was
// executed (miss/coalesced) on a memo-enabled service; it is nil on cache
// hits, which ran no simulation at all.
type Result struct {
	Hash    string
	Outcome Outcome
	Body    []byte
	Memo    *memo.RunStatsView
	// Convergence summarizes the execution's flight-recorder timeline
	// (time-to-stable-frequency, exploration quanta, energy spent
	// exploring); nil on cache hits and on timeline-disabled services.
	Convergence *timeline.Convergence
}

// JobStatus is the lifecycle of an async submission.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobView is a point-in-time snapshot of an async job.
type JobView struct {
	ID          string                `json:"id"`
	Hash        string                `json:"hash"`
	Status      JobStatus             `json:"status"`
	Outcome     Outcome               `json:"outcome,omitempty"`
	Error       string                `json:"error,omitempty"`
	Memo        *memo.RunStatsView    `json:"memo,omitempty"`
	Convergence *timeline.Convergence `json:"convergence,omitempty"`
	Body        []byte                `json:"-"`
}

// flight is one in-progress execution of a spec; every identical
// submission that arrives while it runs waits on done instead of queueing
// a duplicate.
type flight struct {
	hash    string
	spec    RunSpec
	done    chan struct{}
	started atomic.Bool
	body    []byte
	err     error
	memo    *memo.RunStatsView
	conv    *timeline.Convergence

	// The first submitter's trace rides the flight: queueSpan covers
	// enqueue-to-dequeue, the rest of the tree grows in execute. Both are
	// nil on an untraced service.
	trace     *obs.Trace
	queueSpan *obs.Span
}

// job is one async submission; it resolves through its flight, or is born
// resolved on a cache hit.
type job struct {
	id      string
	hash    string
	outcome Outcome
	fl      *flight // nil when born resolved
	body    []byte
	err     error
}

// Service is the simulation-as-a-service core: content-addressed cache in
// front of a coalescing, bounded job queue drained by a persistent worker
// fleet. Create with New, submit with Submit/SubmitAsync, stop with
// Shutdown.
type Service struct {
	cfg         Config
	cache       *resultCache
	queue       chan *flight
	cancel      context.CancelFunc
	fleet       chan struct{} // closed when every worker has exited
	defaultExec bool          // Executor was defaulted, so the memo tier applies

	mu       sync.Mutex
	closed   bool
	inflight map[string]*flight
	jobs     map[string]*job
	jobOrder []string

	seq       atomic.Uint64
	hits      atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	busy      atomic.Int64 // workers currently executing a flight

	// Cold executions and cache-served responses live on latency scales
	// three orders of magnitude apart; each gets its own histogram so a
	// burst of hits cannot dilute the execution percentiles (or vice
	// versa). The same histograms back /v1/stats percentiles and /metrics
	// exposition — one source of truth.
	execLat *stats.Histogram
	hitLat  *stats.Histogram

	// govLat holds one execution-latency histogram per governor, created
	// lazily on first execution and registered with the metrics registry.
	govMu  sync.Mutex
	govLat map[string]*stats.Histogram
}

// maxJobs bounds the async job registry; finished jobs are evicted oldest
// first past this.
const maxJobs = 1024

// New starts a service: the worker fleet spawns immediately (through the
// shared runner.Pool, like every other harness fan-out in the repo) and
// blocks on the queue.
func New(cfg Config) *Service {
	defaultExec := cfg.Executor == nil
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:         cfg,
		cache:       newResultCache(cfg.CacheEntries),
		queue:       make(chan *flight, cfg.QueueDepth),
		cancel:      cancel,
		fleet:       make(chan struct{}),
		defaultExec: defaultExec,
		inflight:    make(map[string]*flight),
		jobs:        make(map[string]*job),
		execLat:     stats.NewHistogram(),
		hitLat:      stats.NewHistogram(),
		govLat:      make(map[string]*stats.Histogram),
	}
	s.registerMetrics()
	workers := make([]func(context.Context) error, cfg.Workers)
	for i := range workers {
		workers[i] = s.worker
	}
	pool := runner.Pool{Workers: cfg.Workers}
	go func() {
		defer close(s.fleet)
		// Workers only return nil; the pool is used for its bounded
		// spawn/join, not error aggregation.
		_ = pool.Go(ctx, workers...)
	}()
	return s
}

// registerMetrics wires every metric family to the counters the service
// already keeps: counters read the same atomics /v1/stats snapshots,
// gauges read live structures at scrape time, and the latency histograms
// are the very objects Stats computes percentiles from. No shadow
// counting anywhere. A nil registry makes every call here a no-op.
func (s *Service) registerMetrics() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	u := func(v *atomic.Uint64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	for _, c := range []struct {
		outcome string
		v       *atomic.Uint64
	}{
		{"hit", &s.hits}, {"disk", &s.diskHits}, {"miss", &s.misses},
		{"coalesced", &s.coalesced}, {"rejected", &s.rejected},
	} {
		m.CounterFunc("cf_cache_requests_total",
			"Submissions by admission outcome (hit, disk, miss, coalesced, rejected).",
			u(c.v), obs.Label{Name: "outcome", Value: c.outcome})
	}
	m.CounterFunc("cf_runs_completed_total", "Executions that produced a report.", u(&s.completed))
	m.CounterFunc("cf_runs_failed_total", "Executions that failed.", u(&s.failed))
	m.GaugeFunc("cf_queue_depth", "Flights accepted but not yet executing.",
		func() float64 { return float64(len(s.queue)) })
	m.GaugeFunc("cf_queue_capacity", "Job queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	m.GaugeFunc("cf_workers", "Worker fleet size.",
		func() float64 { return float64(s.cfg.Workers) })
	m.GaugeFunc("cf_workers_busy", "Workers currently executing a flight.",
		func() float64 { return float64(s.busy.Load()) })
	m.GaugeFunc("cf_cache_entries", "Result-cache LRU entries.",
		func() float64 { return float64(s.cache.Len()) })
	m.GaugeFunc("cf_cache_bytes", "Result-cache LRU bytes.",
		func() float64 { return float64(s.cache.Bytes()) })
	m.HistogramVar("cf_exec_seconds",
		"Cold execution latency (worker-fleet runs), seconds.", s.execLat)
	m.HistogramVar("cf_cachepath_seconds",
		"Cache-path service latency (hits, disk hits, coalesced waits), seconds.", s.hitLat)
	if st := s.cfg.Store; st != nil {
		f := func(get func(store.Info) float64) func() float64 {
			return func() float64 { return get(st.Info()) }
		}
		m.CounterFunc("cf_store_hits_total", "Persistent-store lookups served.",
			f(func(i store.Info) float64 { return float64(i.Hits) }))
		m.CounterFunc("cf_store_misses_total", "Persistent-store lookups missed.",
			f(func(i store.Info) float64 { return float64(i.Misses) }))
		m.CounterFunc("cf_store_corrupt_total", "Persistent-store entries rejected as corrupt.",
			f(func(i store.Info) float64 { return float64(i.Corrupt) }))
		m.CounterFunc("cf_store_evicted_total", "Persistent-store entries evicted.",
			f(func(i store.Info) float64 { return float64(i.Evicted) }))
		m.GaugeFunc("cf_store_entries", "Persistent-store entries.",
			f(func(i store.Info) float64 { return float64(i.Entries) }))
		m.GaugeFunc("cf_store_bytes", "Persistent-store bytes.",
			f(func(i store.Info) float64 { return float64(i.Bytes) }))
	}
	if mt := s.cfg.Memo; mt != nil {
		f := func(get func(memo.Info) float64) func() float64 {
			return func() float64 { return get(mt.Info()) }
		}
		m.CounterFunc("cf_memo_lookups_total", "Memo-tier snapshot lookups.",
			f(func(i memo.Info) float64 { return float64(i.Lookups) }))
		m.CounterFunc("cf_memo_hits_total", "Memo-tier snapshot lookups that hit.",
			f(func(i memo.Info) float64 { return float64(i.Hits) }))
		m.CounterFunc("cf_memo_prefix_hits_total", "Runs resumed from a memoized prefix.",
			f(func(i memo.Info) float64 { return float64(i.PrefixHits) }))
		m.CounterFunc("cf_memo_quanta_saved_total", "Simulation quanta skipped via prefix resume.",
			f(func(i memo.Info) float64 { return float64(i.QuantaSaved) }))
		m.GaugeFunc("cf_memo_entries", "Memo-tier snapshot entries.",
			f(func(i memo.Info) float64 { return float64(i.Entries) }))
		m.GaugeFunc("cf_memo_bytes", "Memo-tier snapshot bytes.",
			f(func(i memo.Info) float64 { return float64(i.Bytes) }))
	}
	if ts := s.cfg.Traces; ts != nil {
		m.GaugeFunc("cf_trace_store_entries", "Traces retained.",
			func() float64 { return float64(ts.Len()) })
		m.CounterFunc("cf_trace_store_evicted_total", "Traces dropped by the retention cap.",
			func() float64 { return float64(ts.Evicted()) })
	}
	if tls := s.cfg.Timelines; tls != nil {
		m.GaugeFunc("cf_timeline_store_entries", "Timelines retained.",
			func() float64 { return float64(tls.Len()) })
		m.CounterFunc("cf_timeline_store_evicted_total", "Timelines dropped by the retention cap.",
			func() float64 { return float64(tls.Evicted()) })
	}
}

// governorHist returns the per-governor execution-latency histogram,
// creating and registering it on first use.
func (s *Service) governorHist(gov string) *stats.Histogram {
	if gov == "" {
		gov = "default"
	}
	s.govMu.Lock()
	defer s.govMu.Unlock()
	h, ok := s.govLat[gov]
	if !ok {
		h = stats.NewHistogram()
		s.govLat[gov] = h
		s.cfg.Metrics.HistogramVar("cf_governor_exec_seconds",
			"Cold execution latency by governor, seconds.", h,
			obs.Label{Name: "governor", Value: gov})
	}
	return h
}

// worker drains the queue until it is closed (graceful shutdown) or the
// context is cancelled (forced shutdown, which fails queued flights fast
// so no waiter blocks forever).
func (s *Service) worker(ctx context.Context) error {
	for fl := range s.queue {
		if ctx.Err() != nil {
			s.finish(fl, nil, ErrClosed)
			continue
		}
		s.execute(ctx, fl)
	}
	return nil
}

// execute runs one flight on the executor and publishes its result to the
// cache, the stats and every waiter. On a memo-enabled service (default
// executor only — a custom Executor owns its run path) the experiment
// options carry the snapshot tier and a per-flight stats collector whose
// view travels back on the Result.
func (s *Service) execute(ctx context.Context, fl *flight) {
	fl.started.Store(true)
	s.busy.Add(1)
	defer s.busy.Add(-1)
	fl.queueSpan.End()
	exec := fl.trace.Root().Child("execute")
	start := time.Now()
	var rep *report.RunReport
	var err error
	var rec *timeline.Recorder
	if s.defaultExec {
		// The in-process harness path carries the runtime wiring — memo
		// tier, trace span, profiling, flight recorder — none of which is
		// part of the spec's identity or the report's bytes.
		opt := experiments.Options{Spec: fl.spec, Span: exec, Profile: s.cfg.Profile}
		var rs *memo.RunStats
		if s.cfg.Memo != nil {
			rs = &memo.RunStats{}
			opt.Memo = s.cfg.Memo
			opt.MemoStats = rs
		}
		if s.cfg.Timelines != nil {
			rec = timeline.New(fl.hash)
			opt.Timeline = rec
		}
		rep, err = experiments.BuildReport(opt)
		if err == nil && rs != nil {
			v := rs.View()
			fl.memo = &v
		}
	} else {
		rep, err = s.cfg.Executor(ctx, fl.spec)
	}
	exec.End()
	var body []byte
	if err == nil {
		enc := fl.trace.Root().Child("report_encode")
		body, err = rep.Encode()
		enc.End()
	}
	if err == nil {
		s.cache.Add(fl.hash, body)
		if s.cfg.Store != nil {
			// Write-through to the persistent tier. A failed write only
			// costs durability, not correctness — the store counts it.
			_ = s.cfg.Store.Put(fl.hash, body)
		}
		sec := time.Since(start).Seconds()
		s.execLat.Observe(sec)
		s.governorHist(fl.spec.Governor).Observe(sec)
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	if rec != nil && err == nil {
		// The timeline is published before waiters wake: its bytes are a
		// pure function of the spec, so a re-execution overwrites with
		// identical content.
		_ = s.cfg.Timelines.Save(fl.hash, rec)
		conv := rec.Convergence()
		fl.conv = &conv
		// Counter tracks and decision markers join the span tree so one
		// trace file carries the whole story.
		obs.MergeTimeline(fl.trace, rec)
	}
	if fl.trace != nil {
		root := fl.trace.Root()
		root.Set("outcome", string(OutcomeMiss))
		if err != nil {
			root.Set("error", err.Error())
		}
		root.End()
		_ = s.cfg.Traces.Save(fl.trace)
	}
	s.finish(fl, body, err)
}

// finish resolves a flight: removes it from the coalescing table and
// wakes every waiter.
func (s *Service) finish(fl *flight, body []byte, err error) {
	fl.body, fl.err = body, err
	s.mu.Lock()
	delete(s.inflight, fl.hash)
	s.mu.Unlock()
	close(fl.done)
}

// Submit satisfies one spec synchronously: cache hit, coalesce onto an
// identical in-flight run, or enqueue and wait. A full queue rejects
// immediately with ErrQueueFull rather than blocking the caller.
func (s *Service) Submit(ctx context.Context, spec RunSpec) (Result, error) {
	return s.SubmitUnder(ctx, spec, "")
}

// SubmitUnder is Submit with cross-process trace stitching: parentSpan is
// the remote caller's span ID (from the X-Trace-Parent header), and this
// request's trace roots under it so client and server trees link into one
// trace. Empty parentSpan is plain Submit.
func (s *Service) SubmitUnder(ctx context.Context, spec RunSpec, parentSpan string) (Result, error) {
	start := time.Now()
	adm, err := s.admit(spec, parentSpan)
	if err != nil || adm.fl == nil { // hit or disk hit: born resolved
		if err == nil {
			s.hitLat.Observe(time.Since(start).Seconds())
		}
		return adm.res, err
	}
	fl := adm.fl
	select {
	case <-fl.done:
		adm.join.End()
		if adm.outcome == OutcomeCoalesced {
			// The coalescer's trace is its own (the flight's trace belongs
			// to the first submitter and is saved by execute).
			s.saveTrace(adm.trace, OutcomeCoalesced, fl.err)
		}
		if fl.err != nil {
			return Result{}, fl.err
		}
		if adm.outcome == OutcomeCoalesced {
			// Served by someone else's execution: the wait belongs in the
			// cache-path histogram, not the cold-execution one.
			s.hitLat.Observe(time.Since(start).Seconds())
		}
		return Result{Hash: fl.hash, Outcome: adm.outcome, Body: fl.body, Memo: fl.memo, Convergence: fl.conv}, nil
	case <-ctx.Done():
		// The flight keeps running; a later identical spec will hit the
		// cache it populates.
		return Result{}, ctx.Err()
	}
}

// admission is what admit hands back: either a born-resolved Result or
// the flight to wait on, plus the submitter's trace. For a miss the trace
// rides the flight (execute saves it); for a coalesce the join span stays
// open until the flight resolves.
type admission struct {
	fl      *flight
	outcome Outcome
	res     Result
	trace   *obs.Trace
	join    *obs.Span
}

// saveTrace closes a trace's root span with the request outcome and hands
// it to the trace store. Nil-safe on every argument.
func (s *Service) saveTrace(tr *obs.Trace, outcome Outcome, err error) {
	if tr == nil {
		return
	}
	root := tr.Root()
	root.Set("outcome", string(outcome))
	if err != nil {
		root.Set("error", err.Error())
	}
	root.End()
	_ = s.cfg.Traces.Save(tr)
}

// admit is the shared admission path: normalize + validate, consult the
// cache, coalesce or enqueue. On a traced service it also grows this
// request's span tree — admission, cache/store probes, then queue_wait or
// coalesce_join. Tracing is wall-clock bookkeeping only: the bytes served
// and the cache/store state transitions are identical with it off.
func (s *Service) admit(spec RunSpec, parentSpan string) (admission, error) {
	var tr *obs.Trace
	if s.cfg.Traces != nil {
		tr = obs.NewTraceUnder("", parentSpan)
	}
	adm := tr.Root().Child("admission")
	norm := spec.Normalized()
	if err := norm.Validate(); err != nil {
		return admission{}, err
	}
	hash := norm.Hash()
	tr.SetID(hash)
	adm.End()

	probe := tr.Root().Child("cache_probe")
	body, ok := s.cache.Get(hash)
	probe.Set("hit", ok)
	probe.End()
	if ok {
		s.hits.Add(1)
		s.saveTrace(tr, OutcomeHit, nil)
		return admission{outcome: OutcomeHit, res: Result{Hash: hash, Outcome: OutcomeHit, Body: body}, trace: tr}, nil
	}
	if s.cfg.Store != nil {
		sp := tr.Root().Child("store_probe")
		body, ok := s.cfg.Store.Get(hash)
		sp.Set("hit", ok)
		sp.End()
		if ok {
			// Promote the disk entry into the LRU so the next request is
			// a memory hit; the bytes served are the stored payload
			// verbatim, byte-identical to the original execution.
			s.cache.Add(hash, body)
			s.diskHits.Add(1)
			s.saveTrace(tr, OutcomeDisk, nil)
			return admission{outcome: OutcomeDisk, res: Result{Hash: hash, Outcome: OutcomeDisk, Body: body}, trace: tr}, nil
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return admission{}, ErrClosed
	}
	if fl, ok := s.inflight[hash]; ok {
		s.coalesced.Add(1)
		join := tr.Root().Child("coalesce_join")
		return admission{fl: fl, outcome: OutcomeCoalesced, trace: tr, join: join}, nil
	}
	fl := &flight{hash: hash, spec: norm, done: make(chan struct{})}
	// The first submitter's trace rides the flight; execute closes it.
	// Both fields must be set before the send — a worker may dequeue the
	// flight the instant it lands on the queue.
	fl.trace = tr
	fl.queueSpan = tr.Root().Child("queue_wait")
	select {
	case s.queue <- fl:
		s.inflight[hash] = fl
		s.misses.Add(1)
		return admission{fl: fl, outcome: OutcomeMiss, trace: tr}, nil
	default:
		fl.queueSpan.End()
		s.rejected.Add(1)
		s.saveTrace(tr, "rejected", ErrQueueFull)
		return admission{}, ErrQueueFull
	}
}

// SubmitAsync admits a spec and returns immediately with a job whose
// progress GET-style polling reads through Job. Cache hits return an
// already-done job; backpressure still applies.
func (s *Service) SubmitAsync(spec RunSpec) (JobView, error) {
	return s.SubmitAsyncUnder(spec, "")
}

// SubmitAsyncUnder is SubmitAsync with cross-process trace stitching (see
// SubmitUnder).
func (s *Service) SubmitAsyncUnder(spec RunSpec, parentSpan string) (JobView, error) {
	adm, err := s.admit(spec, parentSpan)
	if err != nil {
		return JobView{}, err
	}
	// An async coalescer has no waiter to close its join span; resolve its
	// trace at admission (the flight's own trace captures the execution).
	if adm.join != nil {
		adm.join.End()
		s.saveTrace(adm.trace, OutcomeCoalesced, nil)
	}
	j := &job{outcome: adm.outcome}
	if adm.fl == nil { // hit or disk hit: born resolved
		j.hash, j.body = adm.res.Hash, adm.res.Body
	} else {
		j.hash, j.fl = adm.fl.hash, adm.fl
	}
	s.mu.Lock()
	j.id = fmt.Sprintf("r%06d-%s", s.seq.Add(1), j.hash[:12])
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictJobsLocked()
	s.mu.Unlock()
	return s.view(j), nil
}

// evictJobsLocked drops the oldest finished jobs past maxJobs; unfinished
// jobs are never evicted, so a pending ID stays pollable.
func (s *Service) evictJobsLocked() {
	for i := 0; len(s.jobs) > maxJobs && i < len(s.jobOrder); {
		id := s.jobOrder[i]
		j, ok := s.jobs[id]
		if ok && j.fl != nil {
			select {
			case <-j.fl.done:
				// finished: evictable
			default:
				i++
				continue
			}
		}
		delete(s.jobs, id)
		s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
	}
}

// Job returns the current view of an async submission.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.view(j), nil
}

// view snapshots a job, resolving its flight state.
func (s *Service) view(j *job) JobView {
	v := JobView{ID: j.id, Hash: j.hash, Outcome: j.outcome}
	if j.fl == nil {
		v.Status, v.Body = JobDone, j.body
		return v
	}
	select {
	case <-j.fl.done:
		if j.fl.err != nil {
			v.Status, v.Error = JobFailed, j.fl.err.Error()
		} else {
			v.Status, v.Body, v.Memo = JobDone, j.fl.body, j.fl.memo
			v.Convergence = j.fl.conv
		}
	default:
		if j.fl.started.Load() {
			v.Status = JobRunning
		} else {
			v.Status = JobQueued
		}
	}
	return v
}

// Stats is a point-in-time operational snapshot, served at /v1/stats.
// Execution latency (cold runs on the worker fleet) and cache-path
// latency (hits, disk hits, coalesced waits) are reported separately —
// and in units matched to their scales: milliseconds for executions,
// microseconds for cache service.
type Stats struct {
	Hits         uint64     `json:"hits"`
	DiskHits     uint64     `json:"disk_hits"`
	Misses       uint64     `json:"misses"`
	Coalesced    uint64     `json:"coalesced"`
	Rejected     uint64     `json:"rejected"`
	Completed    uint64     `json:"completed"`
	Failed       uint64     `json:"failed"`
	QueueDepth   int        `json:"queue_depth"`
	QueueCap     int        `json:"queue_cap"`
	Inflight     int        `json:"inflight"`
	Workers      int        `json:"workers"`
	CacheEntries int        `json:"cache_entries"`
	CacheCap     int        `json:"cache_cap"`
	ExecP50Ms    float64    `json:"exec_p50_ms"`
	ExecP95Ms    float64    `json:"exec_p95_ms"`
	HitP50Us     float64    `json:"hit_p50_us"`
	HitP95Us     float64    `json:"hit_p95_us"`
	Memo         *memo.Info `json:"memo,omitempty"`
}

// Stats snapshots the counters and both latency histograms' percentiles.
// The histograms are the same objects /metrics exposes, so the two
// endpoints can never disagree; percentiles are log-bucket upper bounds
// (one-sided error ≤ 1.585×, see stats.Histogram).
func (s *Service) Stats() Stats {
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	st := Stats{
		Hits:         s.hits.Load(),
		DiskHits:     s.diskHits.Load(),
		Misses:       s.misses.Load(),
		Coalesced:    s.coalesced.Load(),
		Rejected:     s.rejected.Load(),
		Completed:    s.completed.Load(),
		Failed:       s.failed.Load(),
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		Inflight:     inflight,
		Workers:      s.cfg.Workers,
		CacheEntries: s.cache.Len(),
		CacheCap:     s.cfg.CacheEntries,
	}
	st.ExecP50Ms = s.execLat.Quantile(0.5) * 1e3
	st.ExecP95Ms = s.execLat.Quantile(0.95) * 1e3
	st.HitP50Us = s.hitLat.Quantile(0.5) * 1e6
	st.HitP95Us = s.hitLat.Quantile(0.95) * 1e6
	if s.cfg.Memo != nil {
		mi := s.cfg.Memo.Info()
		st.Memo = &mi
	}
	return st
}

// CacheInfo describes every cache tier, served at GET /v1/cache.
type CacheInfo struct {
	// Entries and Bytes describe the in-memory LRU tier.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Store describes the persistent tier; nil when none is configured.
	Store *store.Info `json:"store,omitempty"`
	// Memo describes the prefix-snapshot tier; nil when none is
	// configured.
	Memo *memo.Info `json:"memo,omitempty"`
}

// CacheInfo snapshots the LRU, the persistent store and the memo tier.
func (s *Service) CacheInfo() CacheInfo {
	info := CacheInfo{Entries: s.cache.Len(), Bytes: s.cache.Bytes()}
	if s.cfg.Store != nil {
		si := s.cfg.Store.Info()
		info.Store = &si
	}
	if s.cfg.Memo != nil {
		mi := s.cfg.Memo.Info()
		info.Memo = &mi
	}
	return info
}

// PurgeCache empties every cache tier — the result LRU, the persistent
// store and the prefix-snapshot tier: every subsequent submission
// re-simulates from t=0. It does not interrupt in-flight runs (their
// results repopulate the tiers as they finish).
func (s *Service) PurgeCache() error {
	s.cache.Purge()
	var firstErr error
	if s.cfg.Store != nil {
		firstErr = s.cfg.Store.Purge()
	}
	if s.cfg.Memo != nil {
		if err := s.cfg.Memo.Purge(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Shutdown stops the service gracefully: new submissions are rejected
// with ErrClosed, queued and running jobs finish, and the worker fleet
// exits. If ctx expires first, the remaining work is cancelled and
// Shutdown returns ctx.Err() without blocking further: executors that
// ignore their context (the in-process experiment harnesses) cannot be
// interrupted mid-simulation, so their workers keep draining in the
// background — idle workers fast-fail the still-queued flights with
// ErrClosed, and every waiter resolves as its flight is reached.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// No sender can race this close: every send happens under s.mu
		// with the closed flag checked first.
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.fleet:
	case <-ctx.Done():
		s.cancel()
		select {
		case <-s.fleet:
		default:
			return ctx.Err()
		}
	}
	s.cancel()
	// Normally the fleet drains the queue before exiting; if it was
	// cancelled before ever dequeuing, resolve any stranded flights so no
	// waiter blocks forever.
	for {
		fl, ok := <-s.queue
		if !ok {
			return nil
		}
		s.finish(fl, nil, ErrClosed)
	}
}

// Close is Shutdown with no grace: it cancels outstanding work and
// returns immediately. Waiters resolve as workers observe the
// cancellation; an executor that ignores its context finishes on its own
// time in the background — Close does not wait for it.
func (s *Service) Close() {
	s.cancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}
