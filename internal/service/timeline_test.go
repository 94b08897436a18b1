package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"repro/internal/lru"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/timeline"
)

func TestTraceParentHeaderRoundTrip(t *testing.T) {
	tid, sid, ok := ParseTraceParent(FormatTraceParent("abc123", "def456"))
	if !ok || tid != "abc123" || sid != "def456" {
		t.Errorf("round trip = (%q, %q, %v)", tid, sid, ok)
	}
	for _, bad := range []string{"", "span=", "trace=x", "garbage"} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

func TestTimelineHeaderRoundTrip(t *testing.T) {
	in := timeline.Convergence{Runs: 3, TimeToStableSec: 1.25, ExplorationQuanta: 42, ExplorationEnergyJ: 17.5}
	out, ok := ParseTimelineHeader(FormatTimelineHeader(in))
	if !ok || out != in {
		t.Errorf("round trip = %+v ok=%v, want %+v", out, ok, in)
	}
	for _, bad := range []string{"", "runs", "runs=x"} {
		if _, ok := ParseTimelineHeader(bad); ok {
			t.Errorf("ParseTimelineHeader(%q) accepted", bad)
		}
	}
	// Unknown keys are ignored so the format can grow.
	if c, ok := ParseTimelineHeader("runs=2 future_key=9"); !ok || c.Runs != 2 {
		t.Errorf("forward-compat parse = %+v ok=%v", c, ok)
	}
}

// FuzzParseTraceParent feeds arbitrary X-Trace-Parent values, which any
// HTTP client may send, to ParseTraceParent: it never panics, a value it
// refuses yields no IDs, and a value it accepts formats back to one that
// parses to the same IDs. The seed "span=a=b", a span without a trace,
// was once accepted although its formatted form was refused.
func FuzzParseTraceParent(f *testing.F) {
	f.Add(FormatTraceParent("abc123", "def456"))
	for _, s := range []string{"", "span=", "trace=x", "garbage", "span=s trace=t extra=1", "span=a=b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, ok := ParseTraceParent(s)
		if !ok {
			if tid != "" || sid != "" {
				t.Fatalf("refused %q but returned (%q, %q)", s, tid, sid)
			}
			return
		}
		tid2, sid2, ok := ParseTraceParent(FormatTraceParent(tid, sid))
		if !ok || tid2 != tid || sid2 != sid {
			t.Fatalf("%q parsed to (%q, %q), whose header parses to (%q, %q, %v)", s, tid, sid, tid2, sid2, ok)
		}
	})
}

// FuzzParseTimelineHeader feeds arbitrary X-Timeline values, which a
// remote backend sends, to ParseTimelineHeader: it never panics, a value
// it refuses yields the zero summary, and a value it accepts formats back
// to one that parses to the same summary.
func FuzzParseTimelineHeader(f *testing.F) {
	f.Add(FormatTimelineHeader(timeline.Convergence{Runs: 3, TimeToStableSec: 1.25, ExplorationQuanta: 42, ExplorationEnergyJ: 17.5}))
	for _, s := range []string{"", "runs", "runs=x", "runs=2 future_key=9", "stable_s=NaN explore_j=-Inf", "runs=1e300"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseTimelineHeader(s)
		if !ok {
			if c != (timeline.Convergence{}) {
				t.Fatalf("refused %q but returned %+v", s, c)
			}
			return
		}
		again, ok := ParseTimelineHeader(FormatTimelineHeader(c))
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !ok || again.Runs != c.Runs || again.ExplorationQuanta != c.ExplorationQuanta ||
			!same(again.TimeToStableSec, c.TimeToStableSec) || !same(again.ExplorationEnergyJ, c.ExplorationEnergyJ) {
			t.Fatalf("%q parsed to %+v, whose header parses to %+v, %v", s, c, again, ok)
		}
	})
}

// TestTimelinesPreserveReportBytes extends the determinism-boundary
// contract to the flight recorder: a service executing every spec with
// timelines armed must serve byte-identical canonical reports to a bare
// one on the miss, memo-resume, LRU-hit and disk-hit paths.
func TestTimelinesPreserveReportBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	plainDir, tlDir := t.TempDir(), t.TempDir()
	plain := newTestService(t, Config{Workers: 1, Memo: memo.New(0, nil), Store: mustStore(t, plainDir)})
	tl := newTestService(t, Config{Workers: 1, Memo: memo.New(0, nil), Store: mustStore(t, tlDir),
		Timelines: lru.New[[]byte](8, 0)})

	// Miss, then memo prefix resume (reps=2 shares rep 0 with reps=1).
	for _, spec := range []RunSpec{memoSpec(1), memoSpec(2)} {
		a, err := plain.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("timeline-armed miss differs from plain for reps=%d", spec.Reps)
		}
		if b.Convergence == nil || b.Convergence.Runs != spec.Reps {
			t.Errorf("miss Convergence = %+v, want %d run(s)", b.Convergence, spec.Reps)
		}
	}

	// LRU hit: byte-identical, and no convergence (nothing executed).
	a, err := plain.Submit(ctx, memoSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tl.Submit(ctx, memoSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != OutcomeHit || b.Outcome != OutcomeHit || !bytes.Equal(a.Body, b.Body) {
		t.Fatalf("hit path differs: %s/%s", a.Outcome, b.Outcome)
	}
	if b.Convergence != nil {
		t.Error("cache hit carries a convergence summary; hits run no simulation")
	}

	// Disk hit via fresh services over the same stores.
	plain2 := newTestService(t, Config{Workers: 1, Store: mustStore(t, plainDir)})
	tl2 := newTestService(t, Config{Workers: 1, Store: mustStore(t, tlDir), Timelines: lru.New[[]byte](8, 0)})
	a2, err := plain2.Submit(ctx, memoSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tl2.Submit(ctx, memoSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Outcome != OutcomeDisk || b2.Outcome != OutcomeDisk || !bytes.Equal(a2.Body, b2.Body) {
		t.Fatalf("disk path differs: %s/%s", a2.Outcome, b2.Outcome)
	}

	// The armed service actually recorded: one timeline per executed spec.
	if got := tl.cfg.Timelines.Len(); got != 2 {
		t.Errorf("timeline store holds %d, want 2 (one per executed spec)", got)
	}
}

// TestTimelineBytesIdenticalAcrossServices pins the flight recorder's
// wire determinism: two independent services executing the same spec
// store byte-identical timeline documents.
func TestTimelineBytesIdenticalAcrossServices(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	run := func() []byte {
		s := newTestService(t, Config{Workers: 1, Timelines: lru.New[[]byte](4, 0)})
		res, err := s.Submit(ctx, memoSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		data, ok := s.cfg.Timelines.Get(res.Hash)
		if !ok {
			t.Fatal("executed spec has no stored timeline")
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("two services stored different timeline bytes for one spec")
	}
}

// TestHTTPTimelineEndpoints covers the wire surface: X-Timeline on
// executed responses, the per-run timeline document, the listing with
// retention counters, and 404s for unknown ids and disabled stores.
func TestHTTPTimelineEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, srv := newTestServer(t, Config{Workers: 1, Timelines: lru.New[[]byte](4, 0), Traces: obs.NewTraceStore(4, "")})
	spec := memoSpec(1)

	r1 := postRun(t, srv.URL, spec)
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", r1.StatusCode)
	}
	hash := r1.Header.Get(HeaderHash)
	conv, ok := ParseTimelineHeader(r1.Header.Get(HeaderTimeline))
	if !ok || conv.Runs != 1 {
		t.Fatalf("X-Timeline = %q parsed %+v ok=%v", r1.Header.Get(HeaderTimeline), conv, ok)
	}

	// The execution's trace carries the timeline's counter tracks. Fetch
	// it before the hit below, whose own trace replaces it under the
	// same ID.
	resp, err := http.Get(srv.URL + "/v1/runs/" + hash + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		names[e.Name] = true
	}
	for _, counter := range []string{"uncore_ratio", "ipc", "energy_j"} {
		if !names["rep-0/"+counter] {
			t.Errorf("trace lacks counter track rep-0/%s", counter)
		}
	}

	// A hit response must not claim a convergence summary.
	r2 := postRun(t, srv.URL, spec)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.Header.Get(HeaderCache) != string(OutcomeHit) {
		t.Fatalf("second POST outcome = %s, want hit", r2.Header.Get(HeaderCache))
	}
	if r2.Header.Get(HeaderTimeline) != "" {
		t.Error("cache hit carries X-Timeline")
	}

	// Fetch the timeline (short hash prefix, like the trace route).
	resp, err = http.Get(srv.URL + "/v1/runs/" + hash[:12] + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET timeline: %d %s", resp.StatusCode, body)
	}
	var doc timeline.Export
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("timeline body is not an Export: %v", err)
	}
	if doc.Version != 1 || doc.ID != hash || len(doc.Lanes) == 0 {
		t.Errorf("export = version %d id %.12s lanes %d", doc.Version, doc.ID, len(doc.Lanes))
	}
	if doc.Convergence != conv {
		t.Errorf("stored convergence %+v != header %+v", doc.Convergence, conv)
	}

	// Listing with retention counters.
	resp, err = http.Get(srv.URL + "/v1/timelines")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Timelines []string `json:"timelines"`
		Capacity  int      `json:"capacity"`
		Evicted   uint64   `json:"evicted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Timelines) != 1 || listing.Timelines[0] != hash || listing.Capacity != 4 {
		t.Errorf("listing = %+v", listing)
	}

	// Unknown id 404s.
	resp, err = http.Get(srv.URL + "/v1/runs/ffffffffffff/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPTimelineDisabled(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Executor: (&stubExecutor{}).exec})
	for _, path := range []string{"/v1/runs/abc/timeline", "/v1/timelines"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on timeline-less service: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestClientStitchesTraces is the cross-process half of span tracing: a
// client with its own trace propagates X-Trace-Parent, and the server's
// trace roots under the client's request span — one linked tree.
func TestClientStitchesTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s, srv := newTestServer(t, Config{Workers: 1, Traces: obs.NewTraceStore(4, ""),
		Timelines: lru.New[[]byte](4, 0)})

	spec := memoSpec(1)
	clientTrace := obs.NewTrace(spec.Hash())
	c := &Client{BaseURL: srv.URL, Trace: clientTrace}
	res, err := c.RunResult(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	clientTrace.Root().End()
	if res.Convergence == nil || res.Convergence.Runs != 1 {
		t.Errorf("client-parsed Convergence = %+v, want 1 run", res.Convergence)
	}

	serverTrace, ok := s.cfg.Traces.Get(res.Hash)
	if !ok {
		t.Fatal("server recorded no trace")
	}
	ex := serverTrace.Export()
	if ex.ParentSpan != clientTrace.Root().ID() {
		t.Errorf("server trace parent span = %q, want client root %q", ex.ParentSpan, clientTrace.Root().ID())
	}
	// The server root's ID derives from the remote parent exactly as a
	// local child's would, so the stitched tree has deterministic IDs.
	var root *obs.SpanExport
	for i := range ex.Spans {
		if ex.Spans[i].Name == "request" {
			root = &ex.Spans[i]
			break
		}
	}
	if root == nil {
		t.Fatal("server trace has no request span")
	}
	if root.Parent != clientTrace.Root().ID() {
		t.Errorf("server root parent = %q, want %q", root.Parent, clientTrace.Root().ID())
	}
}
