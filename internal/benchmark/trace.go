package benchmark

import (
	"context"
	"errors"
	"sort"
	"strings"

	"repro/internal/obs"
)

// maxTraces bounds how many span trees one traced pass fetches.
const maxTraces = 512

// tracedReq is one request's client latency split by layer: the self time
// (span duration minus its children's) of every span cfserve recorded,
// summed per layer metric, plus the client-observed time outside the root
// span.
type tracedReq struct {
	clientMs float64
	layers   map[string]float64
	// From the simulate span: simulated seconds, its wall time, and the
	// engine profile's quanta and batch dispatches.
	simSec, simWallSec float64
	quanta, batches    float64
}

// spanLayer maps cfserve's span names onto layer metrics. A span not
// listed here counts toward its parent's layer, so a span added to the
// program later keeps its time inside the layer that encloses it.
func spanLayer(name string) string {
	switch {
	case name == "request":
		return "service.request_self_ms"
	case name == "admission":
		return "service.admission_ms"
	case name == "cache_probe":
		return "service.cache_probe_ms"
	case name == "store_probe":
		return "store.probe_ms"
	case name == "queue_wait" || name == "coalesce_join":
		return "service.queue_wait_ms"
	case name == "execute" || strings.HasPrefix(name, "rep-"):
		return "service.execute_self_ms"
	case name == "memo_probe":
		return "memo.probe_ms"
	case name == "memo_restore":
		return "memo.restore_ms"
	case name == "simulate" || strings.HasPrefix(name, "region-"):
		return "machine.simulate_ms"
	case name == "report_encode":
		return "service.report_encode_ms"
	}
	return ""
}

// collectTraces fetches the span trees of up to maxTraces requests — the
// newest request of each spec hash, since cfserve holds the latest trace
// per hash — and keeps those whose root is parented under the
// X-Trace-Parent span that request was sent with.
func (c *client) collectTraces(ctx context.Context, base string, samples []sample) ([]tracedReq, error) {
	latest := make(map[string]sample)
	for _, s := range samples {
		latest[s.req.hash] = s // samples are in start order: the newest wins
	}
	var picked []sample
	for _, s := range latest {
		picked = append(picked, s)
	}
	sort.Slice(picked, func(a, b int) bool { return picked[a].start.After(picked[b].start) })
	if len(picked) > maxTraces {
		picked = picked[:maxTraces]
	}
	var out []tracedReq
	for _, s := range picked {
		var t obs.TraceExport
		if err := c.getJSON(ctx, base+"/v1/runs/"+s.req.hash+"/trace?format=spans", &t); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue // evicted from the trace ring
		}
		if t.ParentSpan == s.parent {
			out = append(out, attribute(t, s))
		}
	}
	if len(out) == 0 && len(samples) > 0 {
		return nil, errors.New("no span tree matched a traced request")
	}
	return out, nil
}

// attribute splits one request's client latency across layers.
func attribute(t obs.TraceExport, s sample) tracedReq {
	byID := make(map[string]obs.SpanExport, len(t.Spans))
	children := make(map[string]int64)
	for _, sp := range t.Spans {
		byID[sp.ID] = sp
		children[sp.Parent] += sp.DurNs
	}
	layer := func(sp obs.SpanExport) string {
		for {
			if l := spanLayer(sp.Name); l != "" {
				return l
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				return "service.request_self_ms"
			}
			sp = parent
		}
	}
	tr := tracedReq{clientMs: ms(s.lat.Nanoseconds()), layers: make(map[string]float64)}
	rootMs := 0.0
	for _, sp := range t.Spans {
		tr.layers[layer(sp)] += ms(max(0, sp.DurNs-children[sp.ID]))
		switch sp.Name {
		case "request":
			if sp.Parent == t.ParentSpan {
				rootMs = ms(sp.DurNs)
			}
		case "simulate":
			tr.simSec += num(sp.Args["sim_seconds"])
			tr.simWallSec += float64(sp.DurNs) / 1e9
			if p, ok := sp.Args["profile"].(map[string]any); ok {
				tr.quanta += num(p["quanta"])
				tr.batches += num(p["batches"])
			}
		}
	}
	tr.layers["service.unattributed_ms"] = tr.clientMs - rootMs
	return tr
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// num reads a JSON number out of a decoded span argument.
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// attributionGap is, for the request with the median client latency,
// |Σ layer self times + unattributed − client latency| ÷ client latency:
// how much of the latency the span trees fail to account for.
func attributionGap(reqs []tracedReq) float64 {
	if len(reqs) == 0 {
		return 0
	}
	s := append([]tracedReq(nil), reqs...)
	sort.Slice(s, func(a, b int) bool { return s[a].clientMs < s[b].clientMs })
	m := s[(len(s)-1)/2]
	sum := 0.0
	for _, v := range m.layers {
		sum += v
	}
	return ratio(max(sum-m.clientMs, m.clientMs-sum), m.clientMs)
}
