package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyBackend speaks just enough of the cfserve protocol to script
// backpressure: the first reject429 POSTs return 429, the rest succeed
// with a canned report.
func flakyBackend(t *testing.T, reject429 int64, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	body, err := (&stubExecutor{}).mustReport(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= reject429 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"service: job queue full, retry later"}`))
			return
		}
		w.Header().Set(HeaderCache, string(OutcomeMiss))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// mustReport builds the canned report the stub executor would produce.
func (e *stubExecutor) mustReport(t *testing.T) interface{ Encode() ([]byte, error) } {
	t.Helper()
	rep, err := e.exec(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClientRetries429ThenSucceeds: the satellite fix — backpressure is
// retried with backoff instead of failing the experiment.
func TestClientRetries429ThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := flakyBackend(t, 3, &calls)
	c := &Client{BaseURL: srv.URL, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
	res, err := c.RunResult(context.Background(), testSpec(1))
	if err != nil {
		t.Fatalf("RunResult after 429s: %v", err)
	}
	if res.Outcome != OutcomeMiss || len(res.Body) == 0 {
		t.Errorf("outcome = %s, body %d bytes", res.Outcome, len(res.Body))
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("backend saw %d attempts, want 4 (three 429s + success)", got)
	}
}

// TestClientGivesUpAfterMaxAttempts: a persistently saturated backend
// eventually surfaces the 429 instead of spinning forever.
func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := flakyBackend(t, 1<<30, &calls)
	c := &Client{BaseURL: srv.URL, MaxAttempts: 3, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}
	_, err := c.RunResult(context.Background(), testSpec(1))
	if err == nil {
		t.Fatal("want an error after exhausting attempts")
	}
	if !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error should name the 429 and the attempt cap: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d attempts, want exactly 3", got)
	}
}

// TestClientRetryHonoursContext: cancellation during backoff returns
// promptly with the context error, not after the full attempt budget.
func TestClientRetryHonoursContext(t *testing.T) {
	var calls atomic.Int64
	srv := flakyBackend(t, 1<<30, &calls)
	c := &Client{BaseURL: srv.URL, MaxAttempts: 100, RetryBase: time.Hour, RetryMax: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunResult(ctx, testSpec(1))
		done <- err
	}()
	// Let the first attempt land, then cancel mid-backoff.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunResult did not return after cancellation")
	}
}

// TestBackoffReproducibleFromSeed pins the jitter fix: a client's
// backoff sequence is a pure function of its RetrySeed — two jitter
// sources with the same seed produce identical delays, different seeds
// diverge, and no draw touches the shared global math/rand source.
func TestBackoffReproducibleFromSeed(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	a, b := NewJitter(7), NewJitter(7)
	var diverged bool
	other := NewJitter(8)
	for k := 0; k < 16; k++ {
		da, db := a.Backoff(k, base, max), b.Backoff(k, base, max)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", k, da, db)
		}
		if d := base << uint(k); d > 0 && d <= max {
			if da < d/2 || da > d {
				t.Errorf("attempt %d: delay %v outside [%v, %v]", k, da, d/2, d)
			}
		} else if da < max/2 || da > max {
			t.Errorf("attempt %d: capped delay %v outside [%v, %v]", k, da, max/2, max)
		}
		if other.Backoff(k, base, max) != da {
			diverged = true
		}
	}
	if !diverged {
		t.Error("distinct seeds never diverged over 16 draws")
	}
}

// TestClientBackoffSeedDeterminesDelays drives the seed through the
// client itself: two clients with equal RetrySeed retried against a
// permanently saturated backend must spend indistinguishable total
// backoff (measured in draw sequence, not wall time).
func TestClientBackoffSeedDeterminesDelays(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		c := &Client{RetrySeed: seed, RetryBase: time.Millisecond, RetryMax: 16 * time.Millisecond}
		j := c.retryJitter()
		out := make([]time.Duration, 8)
		for k := range out {
			out[k] = j.Backoff(k, c.RetryBase, c.RetryMax)
		}
		return out
	}
	a, b := seq(3), seq(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestClientDoesNotRetryNonBackpressureErrors: a 400 is the caller's
// bug; retrying it would just repeat the bug.
func TestClientDoesNotRetryNonBackpressureErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec"}`))
	}))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL, RetryBase: time.Millisecond}
	if _, err := c.RunResult(context.Background(), testSpec(1)); err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d attempts, want 1 (no retry on 400)", got)
	}
}
