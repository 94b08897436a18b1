package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/governor"
	"repro/internal/lru"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/timeline"
)

// Cache-status and content-address response headers. The cache outcome
// travels out of band so hit, miss and coalesced responses stay
// byte-identical in the body. The memo detail rides out of band for the
// same reason: a prefix-resumed execution's report is byte-identical to a
// from-scratch one, so how it was computed must not touch the body.
const (
	HeaderCache = "X-Cache"
	HeaderHash  = "X-Spec-Hash"
	HeaderJobID = "X-Job-Id"
	HeaderMemo  = "X-Memo"
	// HeaderTimeline carries the executed run's convergence summary
	// (flight-recorder reduction); absent on cache hits.
	HeaderTimeline = "X-Timeline"
	// HeaderTraceParent is the request header propagating the client's
	// trace context ("trace=<trace-id> span=<span-id>"); the server roots
	// its trace under the span so the two trees stitch into one.
	HeaderTraceParent = "X-Trace-Parent"
)

// FormatTraceParent renders trace context for the X-Trace-Parent header.
func FormatTraceParent(traceID, spanID string) string {
	return fmt.Sprintf("trace=%s span=%s", traceID, spanID)
}

// ParseTraceParent decodes FormatTraceParent's output; ok is false for an
// empty or malformed value, including one that lacks either ID.
func ParseTraceParent(s string) (traceID, spanID string, ok bool) {
	for _, field := range strings.Fields(s) {
		key, val, found := strings.Cut(field, "=")
		if !found || val == "" {
			return "", "", false
		}
		switch key {
		case "trace":
			traceID = val
		case "span":
			spanID = val
		}
	}
	if traceID == "" || spanID == "" {
		return "", "", false
	}
	return traceID, spanID, true
}

// FormatTimelineHeader renders a convergence summary as the X-Timeline
// header value: space-separated key=value pairs, floats in %g.
func FormatTimelineHeader(c timeline.Convergence) string {
	return fmt.Sprintf("runs=%d stable_s=%g explore_quanta=%d explore_j=%g",
		c.Runs, c.TimeToStableSec, c.ExplorationQuanta, c.ExplorationEnergyJ)
}

// ParseTimelineHeader decodes FormatTimelineHeader's output; unknown keys
// are ignored so the format can grow. ok is false for an empty or
// malformed value.
func ParseTimelineHeader(s string) (timeline.Convergence, bool) {
	var c timeline.Convergence
	if s == "" {
		return c, false
	}
	any := false
	for _, field := range strings.Fields(s) {
		key, val, found := strings.Cut(field, "=")
		if !found {
			return timeline.Convergence{}, false
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return timeline.Convergence{}, false
		}
		any = true
		switch key {
		case "runs":
			c.Runs = int(f)
		case "stable_s":
			c.TimeToStableSec = f
		case "explore_quanta":
			c.ExplorationQuanta = int(f)
		case "explore_j":
			c.ExplorationEnergyJ = f
		}
	}
	return c, any
}

// FormatMemoHeader renders one execution's memo activity as the X-Memo
// header value: space-separated key=value pairs.
func FormatMemoHeader(v memo.RunStatsView) string {
	return fmt.Sprintf("runs=%d prefix_hits=%d quanta_saved=%d quanta_total=%d snapshots_stored=%d",
		v.Runs, v.PrefixHits, v.QuantaSaved, v.QuantaTotal, v.SnapshotsStored)
}

// ParseMemoHeader decodes FormatMemoHeader's output; unknown keys are
// ignored so the format can grow. ok is false for an empty or malformed
// value.
func ParseMemoHeader(s string) (memo.RunStatsView, bool) {
	var v memo.RunStatsView
	if s == "" {
		return v, false
	}
	any := false
	for _, field := range strings.Fields(s) {
		key, val, found := strings.Cut(field, "=")
		if !found {
			return memo.RunStatsView{}, false
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return memo.RunStatsView{}, false
		}
		any = true
		switch key {
		case "runs":
			v.Runs = int(n)
		case "prefix_hits":
			v.PrefixHits = int(n)
		case "quanta_saved":
			v.QuantaSaved = n
		case "quanta_total":
			v.QuantaTotal = n
		case "snapshots_stored":
			v.SnapshotsStored = int(n)
		}
	}
	return v, any
}

// NewHandler exposes a Service over HTTP:
//
//	POST   /v1/runs          RunSpec JSON in, canonical RunReport JSON out
//	POST   /v1/runs?async=1  202 + job envelope; poll the Location URL
//	GET    /v1/runs/{id}     async job status / result
//	GET    /v1/governors     registered governor names
//	GET    /v1/scenarios     registered workloads (benchmarks + scenarios)
//	GET    /v1/stats         operational snapshot
//	GET    /v1/cache         cache tiers: LRU entries/bytes, store path/size
//	DELETE /v1/cache         purge both tiers (LRU + persistent store)
//	GET    /v1/runs/{id}/trace  span tree of the latest run of a spec hash
//	GET    /v1/traces        trace IDs currently held (+ retention stats)
//	GET    /v1/runs/{id}/timeline  flight-recorder timeline of a spec hash
//	GET    /v1/timelines     timeline IDs currently held (+ retention stats)
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          liveness
//
// The trace and timeline routes accept the spec content hash (or a
// prefix) as {id}. Traces default to Chrome trace-event format;
// ?format=spans returns the structural span-tree JSON instead. All four
// 404 unless the service was built with the corresponding store.
// /metrics serves an empty body on a service without a metrics registry.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		handleRuns(s, w, r)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleJob(s, w, r)
	})
	mux.HandleFunc("GET /v1/governors", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"governors": governor.Names()})
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"scenarios": scenario.List()})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.CacheInfo())
	})
	mux.HandleFunc("DELETE /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		if err := s.PurgeCache(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, s.CacheInfo())
	})
	mux.HandleFunc("GET /v1/runs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		handleTrace(s, w, r)
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Traces == nil {
			writeError(w, http.StatusNotFound, errors.New("tracing disabled (start cfserve with -trace-dir or -traces)"))
			return
		}
		writeJSON(w, http.StatusOK, retained("traces", s.cfg.Traces.Cache()))
	})
	mux.HandleFunc("GET /v1/runs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		handleTimeline(s, w, r)
	})
	mux.HandleFunc("GET /v1/timelines", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Timelines == nil {
			writeError(w, http.StatusNotFound, errors.New("timelines disabled (start cfserve with -timelines)"))
			return
		}
		writeJSON(w, http.StatusOK, retained("timelines", s.cfg.Timelines))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.cfg.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// retained is the body of GET /v1/traces and /v1/timelines: the held IDs,
// sorted, under field, and the store's retention counters.
func retained[V any](field string, c *lru.Cache[V]) map[string]any {
	ids := c.Keys()
	sort.Strings(ids)
	return map[string]any{field: ids, "capacity": c.Cap(), "evicted": c.Evicted()}
}

// handleTrace serves one run's span tree. The default body is Chrome
// trace-event JSON (load it at chrome://tracing or ui.perfetto.dev);
// ?format=spans returns the structural export with deterministic span IDs.
func handleTrace(s *Service, w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled (start cfserve with -trace-dir or -traces)"))
		return
	}
	id := r.PathValue("id")
	tr, ok := s.cfg.Traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for %q (traces hold the most recent runs only)", id))
		return
	}
	if r.URL.Query().Get("format") == "spans" {
		writeJSON(w, http.StatusOK, tr.Export())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = tr.WriteChrome(w)
}

// handleTimeline serves one run's flight-recorder timeline: the stored
// JSON document (versioned schema, bit-deterministic for a given spec).
func handleTimeline(s *Service, w http.ResponseWriter, r *http.Request) {
	if s.cfg.Timelines == nil {
		writeError(w, http.StatusNotFound, errors.New("timelines disabled (start cfserve with -timelines)"))
		return
	}
	id := r.PathValue("id")
	data, ok := s.cfg.Timelines.Find(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no timeline for %q (timelines hold executed runs only — cache hits run no simulation)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// maxSpecBytes bounds a POST /v1/runs body. A spec, inline scenario
// definition included, is a few KiB; past this the server stops reading.
const maxSpecBytes = 1 << 20

func handleRuns(s *Service, w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields() // a typoed field silently changing the run would poison the hash
	err := dec.Decode(&spec)
	if err == nil {
		// The body is one spec: anything after it but whitespace is
		// rejected, not ignored.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the spec")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad spec: %w", err))
		return
	}
	// Cross-process stitching: a client that traces its own side sends its
	// root span; this request's trace roots under it.
	_, parentSpan, _ := ParseTraceParent(r.Header.Get(HeaderTraceParent))
	if async, _ := strconv.ParseBool(r.URL.Query().Get("async")); async {
		jv, err := s.SubmitAsyncUnder(spec, parentSpan)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Location", "/v1/runs/"+jv.ID)
		w.Header().Set(HeaderHash, jv.Hash)
		writeJSON(w, http.StatusAccepted, jv)
		return
	}
	res, err := s.SubmitUnder(r.Context(), spec, parentSpan)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeReport(w, res.Hash, res.Outcome, res.Memo, res.Convergence, res.Body)
}

func handleJob(s *Service, w http.ResponseWriter, r *http.Request) {
	jv, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set(HeaderJobID, jv.ID)
	switch jv.Status {
	case JobDone:
		writeReport(w, jv.Hash, jv.Outcome, jv.Memo, jv.Convergence, jv.Body)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, errors.New(jv.Error))
	default:
		w.Header().Set(HeaderHash, jv.Hash)
		writeJSON(w, http.StatusOK, jv)
	}
}

// writeReport sends the canonical report bytes verbatim — no re-encoding,
// so the body a cache hit serves is the exact byte sequence the original
// execution produced. The memo and timeline details ride out of band as
// headers for the same reason.
func writeReport(w http.ResponseWriter, hash string, outcome Outcome, mv *memo.RunStatsView, conv *timeline.Convergence, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, string(outcome))
	w.Header().Set(HeaderHash, hash)
	if mv != nil {
		w.Header().Set(HeaderMemo, FormatMemoHeader(*mv))
	}
	if conv != nil {
		w.Header().Set(HeaderTimeline, FormatTimelineHeader(*conv))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// statusFor maps service errors to HTTP codes: invalid specs are the
// client's fault, a full queue is backpressure, shutdown is unavailability.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
