package obs

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lru"
)

// TraceStore keeps the latest trace of each trace ID (the spec content
// hash) in a bounded LRU and, when it has a directory, mirrors each saved
// trace there as Chrome trace-event JSON. A nil *TraceStore is a no-op,
// so the service can run untraced through the same code path.
type TraceStore struct {
	traces *lru.Cache[*Trace]
	dir    string
}

// NewTraceStore returns a store keeping the traces of up to capacity
// trace IDs (minimum 1). If dir is non-empty each saved trace is also
// written to dir/trace-<id12>.json, latest save winning.
func NewTraceStore(capacity int, dir string) *TraceStore {
	return &TraceStore{traces: lru.New[*Trace](max(capacity, 1), 0), dir: dir}
}

// Cache returns the retained traces, one slot per trace ID: saving an ID
// again replaces its trace and makes it the newest entry, and Evicted
// counts IDs dropped. It is nil, a cache that holds nothing, for a nil
// store.
func (s *TraceStore) Cache() *lru.Cache[*Trace] {
	if s == nil {
		return nil
	}
	return s.traces
}

// Save records t as the latest trace for its ID and, when the store has a
// directory, writes the Chrome-format file. The write error (if any) is
// returned but the in-memory save always succeeds. A trace without an ID
// is not kept: nothing could look it up.
func (s *TraceStore) Save(t *Trace) error {
	id := t.ID()
	if s == nil || id == "" {
		return nil
	}
	s.traces.Add(id, t, 0)
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	short := id
	if len(short) > 12 {
		short = short[:12]
	}
	path := filepath.Join(s.dir, "trace-"+short+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Get returns the trace saved under id or, failing that, the newest one
// whose ID has id as a prefix (the API accepts the same short hashes as
// /v1/runs/{id}). It does not change the eviction order.
func (s *TraceStore) Get(id string) (*Trace, bool) {
	return s.Cache().Find(id)
}
