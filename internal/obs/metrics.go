package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Label is one name="value" pair on a metric.
type Label struct {
	Name  string
	Value string
}

// metricKind maps to the Prometheus # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: exactly one of the value sources is set.
type metric struct {
	labels  []Label
	valueFn func() float64
	hist    *stats.Histogram
}

// family groups series sharing one metric name, help string and type.
type family struct {
	name    string
	help    string
	kind    metricKind
	series  []*metric
	created int // registration order, for stable output
}

// Registry holds metric families and renders them as Prometheus text
// exposition (version 0.0.4), the format `GET /metrics` serves. A nil
// *Registry is a valid no-op: every registration method returns a usable
// (but unexported) value and WritePrometheus writes nothing, so the
// service can be built with metrics disabled and instrument
// unconditionally.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, m *metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, created: r.order}
		r.order++
		r.families[name] = f
	}
	f.series = append(f.series, m)
}

// CounterFunc registers a counter series read from fn at scrape time, for
// counts that already live in the instrumented component (one source of
// truth — no shadow counting).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &metric{labels: labels, valueFn: fn})
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &metric{labels: labels, valueFn: fn})
}

// HistogramVar registers an existing histogram, for components that own
// their histogram (e.g. the service's exec-latency histogram also feeds
// /v1/stats).
func (r *Registry) HistogramVar(name, help string, h *stats.Histogram, labels ...Label) {
	r.register(name, help, kindHistogram, &metric{labels: labels, hist: h})
}

// labelString renders {a="x",b="y"}; extra appends one more pair (used for
// histogram le labels).
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		// %q escapes \, " and \n — exactly the Prometheus label escapes.
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatLe(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", le)
}

// WritePrometheus renders every registered family in text exposition
// format. Families appear in registration order; series within a family
// in registration order too, so scrapes are diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].created < fams[j].created })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, m := range f.series {
			switch {
			case m.hist != nil:
				snap := m.hist.Snapshot()
				for _, bk := range snap.Buckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(m.labels, Label{"le", formatLe(bk.Le)}), bk.Count)
				}
				fmt.Fprintf(&b, "%s_sum%s %g\n", f.name, labelString(m.labels), snap.Sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(m.labels), snap.Count)
			case m.valueFn != nil:
				fmt.Fprintf(&b, "%s%s %g\n", f.name, labelString(m.labels), m.valueFn())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
