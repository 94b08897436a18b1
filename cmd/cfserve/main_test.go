package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service"
)

// serveProc is one cfserve process started by the test.
type serveProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string        // the process's stdout and stderr
	done    chan struct{} // closed once the process has been waited for
	err     error         // the exit status, valid after done
}

// log returns what the process has printed so far.
func (p *serveProc) log() string {
	data, _ := os.ReadFile(p.logPath) // a missing log is reported as empty
	return string(data)
}

// startCfserve runs the binary on a free loopback port and returns once
// /healthz answers. The port is free when probed but not reserved, so a
// process that exits before it answers is retried on another port.
func startCfserve(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	logf, err := os.Create(filepath.Join(t.TempDir(), "cfserve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	for attempt := 0; attempt < 3; attempt++ {
		addr := freeAddr(t)
		p := &serveProc{
			cmd:     exec.Command(bin, append([]string{"-addr", addr}, args...)...),
			base:    "http://" + addr,
			logPath: logf.Name(),
			done:    make(chan struct{}),
		}
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			p.err = p.cmd.Wait()
			close(p.done)
		}()
		t.Cleanup(func() {
			_ = p.cmd.Process.Kill() // fails only once it has exited
			<-p.done
		})
		if p.awaitHealthy(t) {
			return p
		}
	}
	t.Fatal("cfserve never answered /healthz")
	return nil
}

// awaitHealthy polls /healthz until it answers 200 (true) or the process
// exits (false).
func (p *serveProc) awaitHealthy(t *testing.T) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			t.Logf("cfserve exited before answering (%v):\n%s", p.err, p.log())
			return false
		case <-time.After(20 * time.Millisecond):
		}
		if resp, err := http.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
	}
	t.Fatalf("cfserve did not answer /healthz within 30s:\n%s", p.log())
	return false
}

// do sends one request and returns the response with its body read.
func (p *serveProc) do(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, p.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	return resp, data
}

// cacheInfo reads the tier sizes a GET or DELETE of /v1/cache reports.
func cacheInfo(t *testing.T, data []byte) (lru, stored int) {
	t.Helper()
	var info service.CacheInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("cache info %s: %v", data, err)
	}
	if info.Store == nil {
		t.Fatalf("cache info %s has no store tier", data)
	}
	return info.Entries, info.Store.Entries
}

// buildCommand builds the module's command cmd/<name> with go build into
// dir and returns the binary's path.
func buildCommand(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, filepath.Join("..", name)).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// freeAddr returns a loopback address that was free when probed.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// interruptAndWait sends SIGINT and requires the process to drain and
// exit 0.
func (p *serveProc) interruptAndWait(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("cfserve did not drain within 30s after SIGINT:\n%s", p.log())
	}
	if p.err != nil {
		t.Fatalf("cfserve exit after SIGINT: %v\n%s", p.err, p.log())
	}
}

// TestServeCacheRoundTripAndDrain drives a built cfserve binary over
// loopback HTTP: the same table1 spec twice is a miss then a hit with
// byte-identical, decodable bodies; the LRU and the -store tier each hold
// it once and a DELETE empties both; SIGINT drains the server to exit 0.
// A separate process is the point — the binary's flags, signal handling
// and exit status are what run in production.
func TestServeCacheRoundTripAndDrain(t *testing.T) {
	dir := t.TempDir()
	p := startCfserve(t, buildCommand(t, dir, "cfserve"), "-store", filepath.Join(dir, "store"))

	const spec = `{"experiment":"table1","scale":0.02,"reps":1}`
	var bodies [2][]byte
	for i, want := range []string{"miss", "hit"} {
		resp, body := p.do(t, http.MethodPost, "/v1/runs", spec)
		if got := resp.Header.Get(service.HeaderCache); got != want {
			t.Fatalf("request %d: %s %q, want %q", i+1, service.HeaderCache, got, want)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the cache hit's body differs from the executed run's")
	}
	if _, err := report.Decode(bodies[1]); err != nil {
		t.Fatalf("served body is not a report: %v", err)
	}

	_, data := p.do(t, http.MethodGet, "/v1/cache", "")
	if lru, stored := cacheInfo(t, data); lru != 1 || stored != 1 {
		t.Errorf("after one run: %d LRU and %d store entries, want 1 and 1", lru, stored)
	}
	_, data = p.do(t, http.MethodDelete, "/v1/cache", "")
	if lru, stored := cacheInfo(t, data); lru != 0 || stored != 0 {
		t.Errorf("after purge: %d LRU and %d store entries, want 0 and 0", lru, stored)
	}
	p.interruptAndWait(t)
}

// chromeTrace is the part of a Chrome trace-event file the checks read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
	Metadata map[string]string `json:"metadata"`
}

// checkTrace decodes a Chrome trace and requires every span in must. Spans
// are complete ("X") events with non-negative durations; with -timelines
// on, the flight recorder adds its counters ("C") and decision instants
// ("i") in category "timeline", and nothing else may appear.
func checkTrace(t *testing.T, what string, data []byte, must ...string) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		span := e.Ph == "X" && e.Dur >= 0
		if timeline := e.Cat == "timeline" && (e.Ph == "C" || e.Ph == "i"); !span && !timeline {
			t.Errorf("%s: event %q has category %q, phase %q, duration %g", what, e.Name, e.Cat, e.Ph, e.Dur)
		}
		names[e.Name] = true
	}
	for _, n := range must {
		if !names[n] {
			t.Errorf("%s: no %q span among %v", what, n, names)
		}
	}
	return tr
}

// promSamples parses Prometheus text exposition into sample → value, and
// the sample names of the given histogram's buckets in file order.
func promSamples(t *testing.T, text, histogram string) (map[string]float64, []string) {
	t.Helper()
	samples := map[string]float64{}
	var buckets []string
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed metrics line %q", ln)
		}
		samples[ln[:i]] = v
		if strings.HasPrefix(ln, histogram+"_bucket") {
			buckets = append(buckets, ln[:i])
		}
	}
	return samples, buckets
}

// TestServeMetricsTracesAndPprof drives a built cfserve with every
// observability flag on and requires the signals to hold up without
// touching a report byte: an executed bursty run carries X-Timeline and
// its cache hit does not, with identical bodies; the run's trace is valid
// Chrome JSON over HTTP and under -trace-dir, keyed by the spec hash;
// /metrics counts the miss and the hit, with cumulative histogram buckets
// ending at +Inf = count; pprof answers on its own listener; SIGINT
// drains to exit 0.
func TestServeMetricsTracesAndPprof(t *testing.T) {
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "traces")
	pprofAddr := freeAddr(t)
	p := startCfserve(t, buildCommand(t, dir, "cfserve"), "-trace-dir", traceDir, "-profile", "-pprof-addr", pprofAddr,
		"-store", filepath.Join(dir, "store"), "-memo", "-timelines", "8")

	// bursty is a work-sharing source, so the memo tier stores snapshots
	// for it.
	const spec = `{"scenario":"bursty","scale":0.02,"reps":1}`
	resp, miss := p.do(t, http.MethodPost, "/v1/runs", spec)
	if got := resp.Header.Get(service.HeaderCache); got != "miss" {
		t.Fatalf("first request: %s %q, want miss", service.HeaderCache, got)
	}
	if got := resp.Header.Get(service.HeaderTimeline); !strings.HasPrefix(got, "runs=1") {
		t.Errorf("executed run: %s %q, want runs=1 …", service.HeaderTimeline, got)
	}
	hash := resp.Header.Get(service.HeaderHash)

	// The run's trace, read before the hit replaces it: trace IDs are
	// the spec hash and the latest request wins.
	runSpans := []string{"request", "queue_wait", "execute", "simulate", "report_encode"}
	_, data := p.do(t, http.MethodGet, "/v1/runs/"+hash+"/trace", "")
	if tr := checkTrace(t, "run trace", data, runSpans...); tr.Metadata["trace_id"] != hash {
		t.Errorf("run trace_id %q, want the spec hash %q", tr.Metadata["trace_id"], hash)
	}
	files, err := filepath.Glob(filepath.Join(traceDir, "trace-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no -trace-dir files written (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, f, data, runSpans...)
	}
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "traces", "run-bursty.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, "examples/traces/run-bursty.json", example, "request", "simulate")

	resp, hit := p.do(t, http.MethodPost, "/v1/runs", spec)
	if got := resp.Header.Get(service.HeaderCache); got != "hit" {
		t.Fatalf("second request: %s %q, want hit", service.HeaderCache, got)
	}
	if got := resp.Header.Get(service.HeaderTimeline); got != "" {
		t.Errorf("cache hit carried %s %q", service.HeaderTimeline, got)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("the cache hit's body differs from the executed run's")
	}
	_, data = p.do(t, http.MethodGet, "/v1/runs/"+hash+"/trace", "")
	checkTrace(t, "hit trace", data, "request", "admission", "cache_probe")
	_, data = p.do(t, http.MethodGet, "/v1/runs/"+hash+"/trace?format=spans", "")
	var spans obs.TraceExport
	if err := json.Unmarshal(data, &spans); err != nil || spans.TraceID != hash || len(spans.Spans) == 0 {
		t.Errorf("?format=spans: %v, trace_id %q with %d spans, want the spec hash", err, spans.TraceID, len(spans.Spans))
	}

	_, data = p.do(t, http.MethodGet, "/metrics", "")
	samples, buckets := promSamples(t, string(data), "cf_exec_seconds")
	for name, want := range map[string]float64{
		`cf_cache_requests_total{outcome="miss"}`: 1,
		`cf_cache_requests_total{outcome="hit"}`:  1,
		"cf_runs_completed_total":                 1,
		"cf_exec_seconds_count":                   1,
		"cf_store_entries":                        1,
		"cf_trace_store_evicted_total":            0,
		"cf_timeline_store_entries":               1,
		"cf_timeline_store_evicted_total":         0,
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("metric %s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	for _, name := range []string{"cf_store_bytes", "cf_memo_entries", "cf_memo_bytes", "cf_trace_store_entries"} {
		if samples[name] < 1 {
			t.Errorf("metric %s = %g, want at least 1", name, samples[name])
		}
	}
	if len(buckets) == 0 || !strings.HasSuffix(buckets[len(buckets)-1], `le="+Inf"}`) {
		t.Fatalf("cf_exec_seconds buckets %v do not end at +Inf", buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if samples[buckets[i]] < samples[buckets[i-1]] {
			t.Errorf("bucket %s = %g falls below %s = %g", buckets[i], samples[buckets[i]], buckets[i-1], samples[buckets[i-1]])
		}
	}
	if inf := samples[buckets[len(buckets)-1]]; inf != samples["cf_exec_seconds_count"] {
		t.Errorf("+Inf bucket %g, count %g", inf, samples["cf_exec_seconds_count"])
	}

	// pprof starts beside the public listener, so give it a moment.
	var pprofErr error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var resp *http.Response
		if resp, pprofErr = http.Get("http://" + pprofAddr + "/debug/pprof/"); pprofErr == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			pprofErr = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if pprofErr != nil {
		t.Errorf("pprof on %s: %v\n%s", pprofAddr, pprofErr, p.log())
	}
	p.interruptAndWait(t)
}
