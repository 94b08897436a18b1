// Command cfserve is the simulation-as-a-service front-end: an HTTP
// server that executes RunSpecs on a bounded job queue with a persistent
// worker fleet, coalesces identical in-flight requests and serves
// repeated specs from a content-addressed LRU result cache.
//
//	cfserve -addr :8080 -service-workers 4 -queue 32 -cache 512 -store /var/lib/cfserve
//
// -store adds a persistent content-addressed tier below the LRU: every
// finished execution is appended to disk as one checksummed record in
// this process's segment of the directory, and a restarted (or a second,
// directory-sharing) instance serves those specs without recomputing
// them. -store-max-bytes bounds the directory by deleting whole segments,
// oldest first.
//
// -memo adds a second cache tier below the result cache: phase-boundary
// machine snapshots keyed by prefix chain hash. A spec that misses the
// result cache but shares a schedule prefix with an earlier run resumes
// from the longest memoized snapshot and simulates only the suffix,
// producing byte-identical reports. A run snapshots the starts of its
// first pass's phases, that pass's end and its own end, the boundaries
// where an edited spec can resume. -memo-dir persists snapshots across
// restarts, one checksummed record per snapshot; instances sharing the
// directory see each other's snapshots on their next miss. With it,
// snapshots are written around memory: each goes to disk only, and the
// in-memory LRU holds just the snapshots a resume has read from disk.
// -memo-max-bytes bounds that LRU; without -memo-dir the LRU holds every
// snapshot under the same budget.
//
// Observability is on by default and strictly out of band — it never
// touches report bytes or cache keys. Every request records a span tree
// (admission → queue wait → execute → per-region simulate → report
// encode), and each simulate span carries the engine's batch and quantum
// counts. -traces bounds how many specs' latest traces are held,
// -trace-dir additionally writes each as a Chrome trace-event JSON file.
// /metrics serves Prometheus text. -pprof-addr serves net/http/pprof on a
// separate listener so profiling endpoints never share the public port.
// -profile is accepted and ignored: the counts it used to switch on are
// always recorded.
//
// -timelines arms the deterministic flight recorder on every executed
// spec: the simulated machine is sampled at region boundaries and every
// governor decision lands as an event. Timelines are a pure function of
// the spec (two executions serve byte-identical JSON), stay strictly
// outside report bytes and cache keys, and are served from a bounded
// LRU at GET /v1/runs/{id}/timeline. Executed responses also carry an
// X-Timeline convergence summary header.
//
//	POST   /v1/runs          run a spec, wait for the report
//	POST   /v1/runs?async=1  enqueue, poll GET /v1/runs/{id}
//	GET    /v1/governors     registered strategies
//	GET    /v1/scenarios     registered workloads (benchmarks + scenarios)
//	GET    /v1/stats         hits / misses / coalesced / queue / latency
//	GET    /v1/cache         cache tiers (LRU entries/bytes, store path/size)
//	DELETE /v1/cache         purge LRU + store
//	GET    /v1/runs/{id}/trace  Chrome trace-event JSON for a spec hash
//	GET    /v1/runs/{id}/timeline  flight-recorder JSON for a spec hash
//	GET    /v1/traces        held trace IDs + retention counters
//	GET    /v1/timelines     held timeline IDs + retention counters
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          liveness
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/lru"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("service-workers", 0, "worker fleet size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "job queue depth before 429 rejection (0 = 16)")
		cache     = flag.Int("cache", 0, "result cache entries (0 = 256)")
		storeDir  = flag.String("store", "", "persistent result store directory (empty = memory only); survives restarts and may be shared between instances")
		storeMax  = flag.Int64("store-max-bytes", 0, "prune the store oldest-first past this many payload bytes (0 = unbounded)")
		useMemo   = flag.Bool("memo", false, "enable the prefix-snapshot memo tier: executions resume from the longest memoized prefix of their region schedule")
		memoDir   = flag.String("memo-dir", "", "persistent snapshot directory below the memo LRU (empty = memory only); implies -memo")
		memoMax   = flag.Int64("memo-max-bytes", 0, "in-memory budget for snapshots a resume has read, or for every snapshot without -memo-dir (0 = 64 MiB)")
		traces    = flag.Int("traces", 64, "recent run traces to hold for GET /v1/runs/{id}/trace (0 disables tracing)")
		timelines = flag.Int("timelines", 0, "recent flight-recorder timelines to hold for GET /v1/runs/{id}/timeline (0 disables timeline recording)")
		traceDir  = flag.String("trace-dir", "", "also write each trace as Chrome trace-event JSON under this directory")
		_         = flag.Bool("profile", false, "ignored: traces always carry the engine's batch and quantum counts")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		grace     = flag.Duration("grace", 30*time.Second, "graceful shutdown deadline")
	)
	flag.Parse()
	if err := run(runConfig{
		addr: *addr, workers: *workers, queue: *queue, cache: *cache,
		storeDir: *storeDir, storeMax: *storeMax,
		useMemo: *useMemo, memoDir: *memoDir, memoMax: *memoMax,
		traces: *traces, timelines: *timelines, traceDir: *traceDir,
		pprofAddr: *pprofAddr, grace: *grace,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "cfserve: %v\n", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags; a struct rather than a positional
// list so adding a knob cannot silently swap two same-typed arguments.
type runConfig struct {
	addr      string
	workers   int
	queue     int
	cache     int
	storeDir  string
	storeMax  int64
	useMemo   bool
	memoDir   string
	memoMax   int64
	traces    int
	timelines int
	traceDir  string
	pprofAddr string
	grace     time.Duration
}

func run(rc runConfig) error {
	// No flag here shapes a run: everything that does travels inside each
	// spec, whose hash keys every cache tier.
	cfg := service.Config{Workers: rc.workers, QueueDepth: rc.queue, CacheEntries: rc.cache,
		Metrics: obs.NewRegistry()}
	if rc.traces > 0 || rc.traceDir != "" {
		n := rc.traces
		if n <= 0 {
			n = 64
		}
		cfg.Traces = obs.NewTraceStore(n, rc.traceDir)
		if rc.traceDir != "" {
			if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
				return err
			}
			log.Printf("cfserve: writing Chrome traces to %s", rc.traceDir)
		}
	}
	if rc.timelines > 0 {
		cfg.Timelines = lru.New[[]byte](rc.timelines, 0)
		log.Printf("cfserve: flight recorder on (%d timeline(s) retained)", rc.timelines)
	}
	if rc.storeDir != "" {
		st, err := store.Open(rc.storeDir, rc.storeMax)
		if err != nil {
			return err
		}
		defer st.Close()
		log.Printf("cfserve: store %s: %d entries, %d bytes", rc.storeDir, st.Len(), st.Bytes())
		cfg.Store = st
	}
	if rc.useMemo || rc.memoDir != "" {
		var disk *store.Store
		if rc.memoDir != "" {
			var err error
			if disk, err = store.Open(rc.memoDir, 0); err != nil {
				return err
			}
			defer disk.Close()
			log.Printf("cfserve: memo dir %s: %d snapshot(s), %d bytes", rc.memoDir, disk.Len(), disk.Bytes())
		}
		cfg.Memo = memo.New(rc.memoMax, disk)
		log.Printf("cfserve: prefix-snapshot memoization on")
	}
	svc := service.New(cfg)
	defer svc.Close()

	if rc.pprofAddr != "" {
		// net/http/pprof registers on http.DefaultServeMux; serving that
		// mux on its own listener keeps profiling off the public port.
		go func() {
			log.Printf("cfserve: pprof on %s", rc.pprofAddr)
			if err := http.ListenAndServe(rc.pprofAddr, nil); err != nil {
				log.Printf("cfserve: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: rc.addr, Handler: logRequests(service.NewHandler(svc))}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("cfserve: listening on %s", rc.addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("cfserve: shutting down (grace %s)", rc.grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), rc.grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cfserve: drained, bye")
	return nil
}

// logRequests is a one-line access log: method, path, duration.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
