package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postRun(t *testing.T, url string, spec RunSpec) *http.Response {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPRunTwiceSecondIsByteIdenticalHit is the wire-level version of
// the cache-soundness contract: same spec POSTed twice, second response
// says X-Cache: hit and carries the exact bytes of the first.
func TestHTTPRunTwiceSecondIsByteIdenticalHit(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, Executor: (&stubExecutor{}).exec})
	spec := testSpec(1)

	r1 := postRun(t, srv.URL, spec)
	body1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get(HeaderCache); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}

	r2 := postRun(t, srv.URL, spec)
	body2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if got := r2.Header.Get(HeaderCache); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response is not byte-identical to the computed one")
	}
	if r1.Header.Get(HeaderHash) != r2.Header.Get(HeaderHash) {
		t.Error("spec hash headers differ")
	}
	if !json.Valid(body1) {
		t.Error("response is not valid JSON")
	}
}

func TestHTTPValidationAndBackpressureStatusCodes(t *testing.T) {
	exec := &stubExecutor{gate: make(chan struct{})}
	s, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Executor: exec.exec})
	defer close(exec.gate)

	// 400: unknown benchmark.
	resp := postRun(t, srv.URL, RunSpec{Benchmark: "LINPACK"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: %d, want 400", resp.StatusCode)
	}

	// 400 naming the field: an unknown field (a typo would silently
	// change the run), or a removed engine knob.
	for _, field := range []string{"scael", "sim_workers", "batch_quanta"} {
		resp2, err := http.Post(srv.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"benchmark":"UTS","`+field+`":4}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("unknown field %s: %d %s, want a 400 naming it", field, resp2.StatusCode, body)
		}
	}

	// 429: worker + queue slot held, third distinct spec rejected.
	// (plain http.Post in goroutines: t.Fatal must not run off the test
	// goroutine, and these requests only resolve once the gate opens)
	for _, seed := range []int64{1, 2} {
		raw, _ := json.Marshal(testSpec(seed))
		go func() {
			r, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
			if err == nil {
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}()
		if seed == 1 {
			waitFor(t, func() bool { return exec.calls.Load() == 1 })
		}
	}
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })
	resp3 := postRun(t, srv.URL, testSpec(3))
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue: %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
}

// TestHTTPRunsBodyIsOneBoundedSpec pins that POST /v1/runs reads exactly
// one bounded spec: trailing data is a 400 (a second object's unknown
// field must not slip past DisallowUnknownFields) and a body past the
// size bound is a 413. Neither runs anything; trailing whitespace is
// still one spec.
func TestHTTPRunsBodyIsOneBoundedSpec(t *testing.T) {
	exec := &stubExecutor{}
	_, srv := newTestServer(t, Config{Workers: 1, Executor: exec.exec})
	raw, err := json.Marshal(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := string(raw)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(spec + `{"scenario":"UTS","typo_field":1} trailing garbage`); code != http.StatusBadRequest {
		t.Errorf("spec with trailing data: %d, want 400", code)
	}
	if code := post(strings.Repeat(" ", 8<<20) + spec); code != http.StatusRequestEntityTooLarge {
		t.Errorf("8 MiB body: %d, want 413", code)
	}
	if n := exec.calls.Load(); n != 0 {
		t.Errorf("rejected bodies executed %d run(s)", n)
	}
	if code := post(spec + "\n\t "); code != http.StatusOK {
		t.Errorf("spec with trailing whitespace: %d, want 200", code)
	}
}

func TestHTTPAsyncFlow(t *testing.T) {
	exec := &stubExecutor{gate: make(chan struct{})}
	_, srv := newTestServer(t, Config{Workers: 1, Executor: exec.exec})

	raw, _ := json.Marshal(testSpec(1))
	resp, err := http.Post(srv.URL+"/v1/runs?async=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc != "/v1/runs/"+jv.ID {
		t.Errorf("Location = %q, id = %q", loc, jv.ID)
	}

	// Pending poll returns the envelope, not a report.
	p1, err := http.Get(srv.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	var pending JobView
	json.NewDecoder(p1.Body).Decode(&pending)
	p1.Body.Close()
	if pending.Status != JobQueued && pending.Status != JobRunning {
		t.Errorf("pending status = %s", pending.Status)
	}

	close(exec.gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		p2, err := http.Get(srv.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(p2.Body)
		p2.Body.Close()
		if p2.Header.Get(HeaderCache) != "" {
			// Done: the poll returned the report itself.
			var rep map[string]any
			if err := json.Unmarshal(body, &rep); err != nil {
				t.Fatalf("done body is not a report: %v", err)
			}
			if rep["experiment"] != "run" {
				t.Errorf("report experiment = %v", rep["experiment"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}

	// Unknown job IDs are 404.
	p3, err := http.Get(srv.URL + "/v1/runs/r000000-missing")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, p3.Body)
	p3.Body.Close()
	if p3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", p3.StatusCode)
	}
}

func TestHTTPGovernorsAndStats(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Executor: (&stubExecutor{}).exec})
	c := &Client{BaseURL: srv.URL}

	govs, err := c.Governors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range govs {
		if g == "cuttlefish" {
			found = true
		}
	}
	if !found {
		t.Errorf("governors = %v, want cuttlefish included", govs)
	}

	if _, err := c.RunResult(context.Background(), testSpec(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Workers != 1 {
		t.Errorf("stats = %+v, want misses=1 workers=1", st)
	}
}

// TestHTTPScenarios: GET /v1/scenarios serves the full workload registry
// — Table 1 benchmarks and synthetic scenarios — through the client.
func TestHTTPScenarios(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Executor: (&stubExecutor{}).exec})
	c := &Client{BaseURL: srv.URL}

	infos, err := c.Scenarios(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, info := range infos {
		kinds[info.Name] = string(info.Kind)
	}
	if kinds["bursty"] != "synthetic" {
		t.Errorf("bursty kind = %q, want synthetic (got %v)", kinds["bursty"], kinds)
	}
	if kinds["Heat-irt"] != "bench" {
		t.Errorf("Heat-irt kind = %q, want bench", kinds["Heat-irt"])
	}
}

// TestClientRunRoundTrip: the remote client returns the canonical report
// bytes and surfaces the cache outcome.
func TestClientRunRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Executor: (&stubExecutor{}).exec})
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	res, err := c.RunResult(ctx, testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeMiss {
		t.Errorf("first outcome = %s, want miss", res.Outcome)
	}
	rep, err := report.Decode(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "run" || len(rep.Rows) != 1 {
		t.Errorf("report = %+v", rep)
	}
	if res, err = c.RunResult(ctx, testSpec(1)); err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHit {
		t.Errorf("second outcome = %s, want hit", res.Outcome)
	}

	// Server-side errors surface with the server's message.
	if _, err := c.RunResult(ctx, RunSpec{Benchmark: "LINPACK"}); err == nil ||
		!strings.Contains(err.Error(), "LINPACK") {
		t.Errorf("remote validation error = %v, want benchmark named", err)
	}
}
