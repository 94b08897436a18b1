package benchmark

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// clients is the closed loop's concurrency: two callers, each sending its
// next request only once the previous answer is in. An open loop was
// rejected: over at most two connections the generator's own median
// lateness (0.53 ms at 500 req/s) is ten LRU hits, so it would measure
// sleep jitter and client-side head-of-line blocking, not cfserve.
const clients = 2

// sample is one answered request.
type sample struct {
	start    time.Time
	lat      time.Duration
	cache    string // X-Cache: hit, disk, miss or coalesced
	bytes    int
	req      *request
	memo     string // X-Memo
	timeline string // X-Timeline
	parent   string // the X-Trace-Parent span sent, on traced passes
}

// client is the load generator. It checks every answer: status 200, the
// X-Spec-Hash it computed itself, and a body byte-identical to the first
// body served for that hash, whichever tier serves it.
type client struct {
	http   *http.Client
	traced bool
	spans  atomic.Uint64

	mu       sync.Mutex
	served   map[string][sha256.Size]byte // digest of the first body per hash
	failures []string

	attempted, failed atomic.Int64
}

func newClient(conns int) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		served: make(map[string][sha256.Size]byte),
	}
}

// fail records one failed request; the first few messages are kept.
func (c *client) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// post sends one request and checks the answer; ok is false when it failed.
func (c *client) post(ctx context.Context, base string, r *request) (s sample, ok bool) {
	c.attempted.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(r.body))
	if err != nil {
		c.fail("build request: %v", err)
		return s, false
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		s.parent = fmt.Sprintf("%016x", c.spans.Add(1))
		req.Header.Set(service.HeaderTraceParent, service.FormatTraceParent("cfbench", s.parent))
	}
	s.start = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail("%s: %v", r.hash[:12], err)
		return s, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(s.start)
	switch {
	case err != nil:
		c.fail("%s: read body: %v", r.hash[:12], err)
		return s, false
	case resp.StatusCode != http.StatusOK:
		c.fail("%s: HTTP %d: %.200s", r.hash[:12], resp.StatusCode, body)
		return s, false
	case resp.Header.Get(service.HeaderHash) != r.hash:
		c.fail("%s: X-Spec-Hash %q, computed %q", r.hash[:12], resp.Header.Get(service.HeaderHash), r.hash)
		return s, false
	}
	s.cache = resp.Header.Get(service.HeaderCache)
	if !c.checkBody(r.hash, s.cache, body) {
		return s, false
	}
	s.bytes, s.req = len(body), r
	s.memo, s.timeline = resp.Header.Get(service.HeaderMemo), resp.Header.Get(service.HeaderTimeline)
	return s, true
}

// checkBody holds every body for a hash to the first one served: a cache
// or store hit, a re-execution on a later server and a coalesced wait
// must all repeat those bytes.
func (c *client) checkBody(hash, cache string, body []byte) bool {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	first, seen := c.served[hash]
	if !seen {
		c.served[hash] = sum
	}
	c.mu.Unlock()
	switch {
	case seen && sum != first:
		c.fail("%s: %s body differs from the first body served for it", hash[:12], cache)
	case !seen && (cache == string(service.OutcomeHit) || cache == string(service.OutcomeDisk)):
		c.fail("%s: served as a %s but never served before", hash[:12], cache)
	default:
		return true
	}
	return false
}

// cursor hands out a request stream in order across clients.
type cursor struct {
	i    atomic.Int64
	next func(i int) *request // nil ends the stream
	at   func(i int)          // if set, called before request i is handed out
}

func listCursor(reqs []*request) *cursor {
	return &cursor{next: func(i int) *request {
		if i < len(reqs) {
			return reqs[i]
		}
		return nil
	}}
}

func (c *cursor) take() *request {
	i := int(c.i.Add(1) - 1)
	if c.at != nil {
		c.at(i)
	}
	return c.next(i)
}

// drive runs the closed loop until end or the end of the stream and
// returns the answered requests ordered by start time.
func (c *client) drive(ctx context.Context, base string, cur *cursor, end time.Time) ([]sample, error) {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				r := cur.take()
				if r == nil {
					return
				}
				if s, ok := c.post(ctx, base, r); ok {
					per[k] = append(per[k], s)
				}
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].start.Before(all[b].start) })
	return all, ctx.Err()
}

// getJSON decodes one GET endpoint.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
