package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Client talks to a cfserve instance. The zero HTTPClient uses
// http.DefaultClient; BaseURL is the server root, e.g.
// "http://localhost:8080".
//
// HTTP 429 (queue-full backpressure) is not an error but a "come back
// in a moment": RunResult retries it with jittered exponential backoff
// up to MaxAttempts, honouring the request context, instead of failing
// the whole experiment. Every other failure surfaces immediately.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// Trace, when set, is propagated on submissions as an
	// X-Trace-Parent header carrying the trace ID and root span ID, so
	// the server parents its own span tree under this client's request
	// span and the two processes export as one stitched trace. Purely
	// observational: it never affects report bytes or cache identity.
	Trace *obs.Trace
	// MaxAttempts caps submissions of one spec, counting the first
	// (0 = 8; 1 disables retrying).
	MaxAttempts int
	// RetryBase is the first backoff delay; attempt k waits
	// RetryBase·2^k jittered over [d/2, d] (0 = 100ms).
	RetryBase time.Duration
	// RetryMax caps a single backoff sleep (0 = 5s).
	RetryMax time.Duration
	// RetrySeed seeds this client's private jitter source, making the
	// backoff sequence reproducible in tests (0 = a one-time
	// clock-derived seed, so distinct clients still decorrelate). The
	// client never draws from the global math/rand source — under
	// concurrent sweeps that lock was both a contention point and a
	// reproducibility leak.
	RetrySeed int64

	jitMu  sync.Mutex
	jitter *Jitter
}

func (c *Client) retryParams() (attempts int, base, max time.Duration) {
	attempts, base, max = c.MaxAttempts, c.RetryBase, c.RetryMax
	if attempts <= 0 {
		attempts = 8
	}
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return attempts, base, max
}

// retryJitter lazily builds the client's private jitter source.
func (c *Client) retryJitter() *Jitter {
	c.jitMu.Lock()
	defer c.jitMu.Unlock()
	if c.jitter == nil {
		c.jitter = NewJitter(c.RetrySeed)
	}
	return c.jitter
}

// Jitter is a seeded, mutex-guarded uniform source for backoff delays.
// Each client (and the sweep orchestrator) owns one, so backoff draws
// are reproducible from the seed and never contend on the global
// math/rand lock under concurrent sweeps.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter builds a jitter source; seed 0 derives a one-time seed from
// the clock so independent owners decorrelate by default.
func NewJitter(seed int64) *Jitter {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Jitter{rng: rand.New(rand.NewSource(seed))}
}

// Backoff returns the jittered delay before retry attempt k (0-based):
// base·2^k jittered uniformly over [d/2, d], never exceeding max. The
// jitter decorrelates clients hammering one backend.
func (j *Jitter) Backoff(k int, base, max time.Duration) time.Duration {
	d := base << uint(k)
	if d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d/2 + time.Duration(j.rng.Int63n(int64(d/2)+1))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// RunResult submits a spec synchronously and returns the full response
// detail: the spec's content hash, the cache outcome (hit / disk / miss /
// coalesced), the canonical report bytes exactly as the server sent them,
// and — when the server executed the spec — the parsed X-Memo and
// X-Timeline detail. 429 responses are retried with jittered backoff; see
// Client.
func (c *Client) RunResult(ctx context.Context, spec RunSpec) (Result, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return Result{}, err
	}
	attempts, base, max := c.retryParams()
	jit := c.retryJitter()
	var lastErr error
	for k := 0; k < attempts; k++ {
		if k > 0 {
			select {
			case <-time.After(jit.Backoff(k-1, base, max)):
			case <-ctx.Done():
				return Result{}, fmt.Errorf("%w (after %d attempt(s): %v)", ctx.Err(), k, lastErr)
			}
		}
		res, retryable, err := c.post(ctx, raw)
		if err == nil {
			return res, nil
		}
		if !retryable {
			return Result{}, err
		}
		lastErr = err
	}
	return Result{}, fmt.Errorf("service: giving up after %d attempts: %w", attempts, lastErr)
}

// post performs one submission attempt; retryable marks 429
// backpressure, the only failure worth waiting out.
func (c *Client) post(ctx context.Context, raw []byte) (res Result, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/runs"), bytes.NewReader(raw))
	if err != nil {
		return Result{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Trace != nil {
		req.Header.Set(HeaderTraceParent, FormatTraceParent(c.Trace.ID(), c.Trace.Root().ID()))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Result{}, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Result{}, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return Result{}, resp.StatusCode == http.StatusTooManyRequests, remoteError(resp.StatusCode, body)
	}
	res = Result{
		Hash:    resp.Header.Get(HeaderHash),
		Outcome: Outcome(resp.Header.Get(HeaderCache)),
		Body:    body,
	}
	if mv, ok := ParseMemoHeader(resp.Header.Get(HeaderMemo)); ok {
		res.Memo = &mv
	}
	if cv, ok := ParseTimelineHeader(resp.Header.Get(HeaderTimeline)); ok {
		res.Convergence = &cv
	}
	return res, false, nil
}

// remoteError surfaces the server's {"error": ...} message when there is
// one, falling back to the raw status.
func remoteError(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("service: server returned %d: %s", code, e.Error)
	}
	return fmt.Errorf("service: server returned %d", code)
}
