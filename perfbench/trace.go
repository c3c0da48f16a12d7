package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer and writes them out when the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the enclosing span (0 at the root of an op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID (0 when t is nil).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as the
// server-side handler span taken on another goroutine.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// durations returns the durations of every closed span per name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the total of each span's duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for i, self := range t.spanSelf() {
		out[t.spans[i].Name] += self
	}
	return out
}

// spanSelf returns the self time of every span, indexed like t.spans.
func (t *tracer) spanSelf() []float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		if s.End > 0 {
			out[i] = float64(s.End-s.Start) - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curStart, curEnd := int64(0), int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return float64(total)
}

// layerMetrics derives the span-based per-layer metrics: p50/p99 of each
// layer call in µs, and the shares of op time the analysis and the
// simulator account for.
func (t *tracer) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	d := t.durations()
	for _, name := range []string{"topology.load", "core.bind", "core.hash", "core.analyze",
		"core.backlogs", "core.validate", "core.simulate"} {
		out[name+"_p50_us"] = quantile(d[name], 0.50) / 1e3
		out[name+"_p99_us"] = quantile(d[name], 0.99) / 1e3
	}
	for _, name := range []string{"render.analyze", "render.backlog", "render.validate", "serve.handler"} {
		out[name+"_p50_us"] = quantile(d[name], 0.50) / 1e3
	}
	if ops := sum(d["op"]); ops > 0 {
		// Analysis inside ops only: serve-mix's probes of the same calls
		// run outside any op.
		analysis := 0.0
		for i, self := range t.spanSelf() {
			s := t.spans[i]
			if (s.Name == "core.analyze" || s.Name == "core.backlogs") && s.Parent != 0 && t.spans[s.Parent-1].Name == "op" {
				analysis += self
			}
		}
		out["share.analysis"] = analysis / ops
		out["share.simulate"] = sum(d["core.simulate"]) / ops
	}
	return out
}

// write saves every span as JSON, with the self time of each name.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	self := t.selfTimes()
	selfMs := make(map[string]float64, len(self))
	for k, v := range self {
		selfMs[k] = v / 1e6
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfMs, t.spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// traceBlock returns the tracer for closed-loop block b: blocks alternate
// untraced and traced, so one traced run also measures its own overhead.
func traceBlock(tr *tracer, b int) *tracer {
	if b%2 == 1 {
		return tr
	}
	return nil
}

// overhead is the tracing overhead: the mean op latency of traced blocks
// over that of untraced blocks, minus one.
func overhead(lat [2][]float64) float64 {
	if len(lat[0]) == 0 || len(lat[1]) == 0 {
		return 0
	}
	return mean(lat[1])/mean(lat[0]) - 1
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
