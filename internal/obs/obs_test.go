package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestSpanIDsDeterministic pins the core tracing property: two traces of
// the same request shape have identical span IDs regardless of the order
// concurrent spans were created in, while durations are free to differ.
func TestSpanIDsDeterministic(t *testing.T) {
	build := func(reverse bool) map[string]string {
		tr := NewTrace("abc123")
		root := tr.Root()
		exec := root.Child("execute")
		n := 4
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			if reverse {
				i = n - 1 - i
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep := exec.ChildLane(spanName("rep", i), i+1)
				rep.Child("simulate").End()
				rep.End()
			}()
		}
		wg.Wait()
		exec.End()
		root.End()
		ids := make(map[string]string)
		for _, s := range tr.Export().Spans {
			ids[s.Name+"/"+s.Parent] = s.ID
		}
		return ids
	}
	a, b := build(false), build(true)
	if len(a) != len(b) {
		t.Fatalf("span count differs: %d vs %d", len(a), len(b))
	}
	for k, id := range a {
		if b[k] != id {
			t.Errorf("span %q ID differs across runs: %s vs %s", k, id, b[k])
		}
	}
}

func spanName(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i))
}

// TestSpanNilSafety: a nil trace/span must swallow the whole API so
// untraced code runs the same path as traced code.
func TestSpanNilSafety(t *testing.T) {
	var tr *Trace
	root := tr.Root()
	if root != nil {
		t.Fatal("nil trace must yield nil root")
	}
	child := root.Child("x")
	child.Set("k", 1)
	child.ChildLane("y", 3).End()
	child.End()
	tr.SetID("z")
	if tr.ID() != "" {
		t.Error("nil trace ID must be empty")
	}
	if got := child.String(); got != "<nil span>" {
		t.Errorf("nil span String = %q", got)
	}
	var st *TraceStore
	if err := st.Save(tr); err != nil {
		t.Errorf("nil store Save: %v", err)
	}
	if _, ok := st.Get("x"); ok {
		t.Error("nil store Get must miss")
	}
	var reg *Registry
	reg.CounterFunc("x_total", "h", func() float64 { return 1 })
	reg.GaugeFunc("y", "h", func() float64 { return 1 })
	reg.HistogramVar("z", "h", stats.NewHistogram())
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

// TestWriteChromeFormat validates the export against the trace-event
// schema: a traceEvents array of complete ("X") events with numeric
// ts/dur in microseconds.
func TestWriteChromeFormat(t *testing.T) {
	tr := NewTrace("deadbeef")
	s := tr.Root().Child("cache_probe")
	s.Set("outcome", "miss")
	s.End()
	tr.Root().End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		Metadata    map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	if doc.Metadata["trace_id"] != "deadbeef" {
		t.Errorf("metadata trace_id = %q", doc.Metadata["trace_id"])
	}
	for _, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("event missing %q: %v", k, e)
			}
		}
		if e["ph"] != "X" {
			t.Errorf("ph = %v, want X", e["ph"])
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Errorf("ts is not numeric: %v", e["ts"])
		}
	}
}

func TestTraceStoreRingAndPrefix(t *testing.T) {
	dir := t.TempDir()
	st := NewTraceStore(2, dir)
	for _, id := range []string{"aaaa1111", "bbbb2222", "cccc3333"} {
		tr := NewTrace(id)
		tr.Root().End()
		if err := st.Save(tr); err != nil {
			t.Fatalf("save %s: %v", id, err)
		}
	}
	if st.Cache().Len() != 2 {
		t.Fatalf("ring len = %d, want 2 (capacity)", st.Cache().Len())
	}
	if _, ok := st.Get("aaaa1111"); ok {
		t.Error("oldest trace must be evicted")
	}
	if tr, ok := st.Get("cccc"); !ok || tr.ID() != "cccc3333" {
		t.Error("prefix lookup failed")
	}
	// Dir mirror: all three were written (eviction doesn't delete files).
	files, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil || len(files) != 3 {
		t.Fatalf("trace files = %v (err %v), want 3", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("trace file missing traceEvents")
	}
}

// TestTraceStoreKeepsOneSlotPerID: a spec served many times must not push
// other specs' traces out. With capacity 2, saves a, a, b, a, a keep both
// IDs, evict nothing, and leave the latest save of a retrievable.
func TestTraceStoreKeepsOneSlotPerID(t *testing.T) {
	st := NewTraceStore(2, "")
	var last *Trace
	for _, id := range []string{"aaaa", "aaaa", "bbbb", "aaaa", "aaaa"} {
		last = NewTrace(id)
		last.Root().End()
		if err := st.Save(last); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Get("bbbb"); !ok {
		t.Error("bbbb was pushed out by repeated saves of aaaa")
	}
	if tr, ok := st.Get("aaaa"); !ok || tr != last {
		t.Error("aaaa must resolve to its latest save")
	}
	if c := st.Cache(); c.Len() != 2 || c.Evicted() != 0 {
		t.Errorf("len %d evicted %d, want 2 / 0", c.Len(), c.Evicted())
	}
}

// TestRegistryPrometheusFormat pins the exposition format: HELP/TYPE
// lines, escaped labels, histogram _bucket/_sum/_count with cumulative
// monotone buckets ending at +Inf.
func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("cf_cache_requests_total", "Cache outcomes.", func() float64 { return 3 }, Label{"outcome", "hit"})
	reg.CounterFunc("cf_cache_requests_total", "Cache outcomes.", func() float64 { return 1 }, Label{"outcome", "miss"})
	reg.GaugeFunc("cf_queue_depth", "Jobs queued.", func() float64 { return 7 })
	h := stats.NewHistogram()
	reg.HistogramVar("cf_exec_seconds", "Exec latency.", h, Label{"governor", `she"p`})
	h.Observe(0.01)
	h.Observe(0.25)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP cf_cache_requests_total Cache outcomes.",
		"# TYPE cf_cache_requests_total counter",
		`cf_cache_requests_total{outcome="hit"} 3`,
		`cf_cache_requests_total{outcome="miss"} 1`,
		"# TYPE cf_queue_depth gauge",
		"cf_queue_depth 7",
		"# TYPE cf_exec_seconds histogram",
		`governor="she\"p"`,
		`le="+Inf"`,
		"cf_exec_seconds_count{", // labeled count line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP for a family must appear exactly once even with two series.
	if n := strings.Count(out, "# HELP cf_cache_requests_total"); n != 1 {
		t.Errorf("HELP repeated %d times", n)
	}
	// Bucket counts must be cumulative: parse and check monotone.
	var last uint64
	var seen int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "cf_exec_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not monotone: %d after %d", v, last)
		}
		last = v
		seen++
	}
	if seen == 0 || last != 2 {
		t.Errorf("buckets seen=%d last=%d, want last=2", seen, last)
	}
}
