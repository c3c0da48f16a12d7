package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// The benchmark's own tests run each workload for one second.

const testSeconds = 1

func runOnce(t *testing.T, name string, seed uint64, traced, corrupt bool) (*result, *record, *tracer) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	e := &env{seed: seed, seconds: testSeconds * time.Second, root: "..", corrupt: corrupt}
	if traced {
		e.tr = newTracer()
	}
	res, rec, err := execute(w, e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, rec, e.tr
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestEveryMetricPrinted runs each workload untraced and traced and
// checks the printed metrics are exactly the declared ones, with units.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, rec, _ := runOnce(t, w.name, 7, traced, false)
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d; notes %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, rec.Notes)
			}
			if !traced {
				for _, d := range endToEndMetrics {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestOutputCheckFires corrupts one expected output per workload: the
// run must report it as a failure, not as a fast success.
func TestOutputCheckFires(t *testing.T) {
	for _, w := range workloads {
		res, rec, _ := runOnce(t, w.name, 7, false, true)
		if res.Correct || res.Failed == 0 || rec.Wrong == 0 {
			t.Errorf("%s with a corrupted expectation: correct=%v failed=%d wrong=%d", w.name, res.Correct, res.Failed, rec.Wrong)
		}
	}
}

// TestDigestRepeats checks two runs of one seed produce the same output
// digest, and another seed another one.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		_, a, _ := runOnce(t, w.name, 3, false, false)
		_, b, _ := runOnce(t, w.name, 3, false, false)
		_, c, _ := runOnce(t, w.name, 4, false, false)
		if a.DigestOps != b.DigestOps || a.Digest != b.Digest {
			t.Errorf("%s seed 3: digests %s (%d ops) and %s (%d ops) differ", w.name, a.Digest, a.DigestOps, b.Digest, b.DigestOps)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 3 and 4 share digest %s", w.name, a.Digest)
		}
	}
}

// TestTraceCoversEveryLayer checks the traced runs time a call into every
// layer the per-layer metrics name, and that the counters of the layers
// reached only through core move.
func TestTraceCoversEveryLayer(t *testing.T) {
	spans := map[string]bool{}
	values := map[string]map[string]float64{}
	for _, w := range workloads {
		res, _, tr := runOnce(t, w.name, 7, true, false)
		for _, n := range tr.spanNames() {
			spans[n] = true
		}
		values[w.name] = map[string]float64{}
		for k, m := range res.Metrics {
			values[w.name][k] = m.Value
		}
	}
	for _, name := range []string{"topology.load", "topology.build", "traffic.real_case_with", "core.bind", "core.hash",
		"core.analyze", "core.backlogs", "core.validate", "core.simulate",
		"render.analyze", "render.backlog", "render.validate", "serve.handler"} {
		if !spans[name] {
			t.Errorf("no %s span in any traced run", name)
		}
	}
	if got := strings.Join(layersOf(keys(spans)), ","); got != "core,render,serve,topology,traffic" {
		t.Errorf("layers with spans: %s", got)
	}
	for _, c := range []struct{ workload, metric string }{
		{"grid-sweep", "analysis.cache_hit_ratio"},
		{"grid-sweep", "netcalc.memo_hit_ratio"},
		{"grid-sweep", "share.analysis"},
		{"validate-mix", "des.events"},
		{"validate-mix", "des.ns_per_event"},
		{"validate-mix", "share.simulate"},
		{"serve-mix", "serve.handler_p50_us"},
		{"serve-mix", "serve.computes"},
		{"serve-mix", "serve.hit_ratio"},
	} {
		if values[c.workload][c.metric] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", c.workload, c.metric, values[c.workload][c.metric])
		}
	}
}

// spanNames lists the distinct span names recorded, sorted.
func (t *tracer) spanNames() []string {
	seen := map[string]bool{}
	for _, s := range t.spans {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layersOf maps span names to the layers they time.
func layersOf(names []string) []string {
	seen := map[string]bool{}
	for _, n := range names {
		if i := strings.IndexByte(n, '.'); i > 0 {
			seen[n[:i]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestUsage checks bad invocations exit 2 without printing a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "grid-sweep", "--seconds", "0"},
		{"--workload", "grid-sweep", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := tr.selfTimes()
	// Children cover [10,60] and [90,100] of the op: 60 of 100.
	if self["op"] != 40 || self["a"] != 30 || self["c"] != 30 {
		t.Errorf("self times %v", self)
	}
}

// TestHostScale checks the scale a stretch's CPU times are multiplied by:
// the reference kernel time over the median kernel time sampled during
// the stretch, 1 for a stretch without a sample, and a fresh start after
// each stretch.
func TestHostScale(t *testing.T) {
	var h hostSpeed
	if f := h.scale(); f != 1 {
		t.Errorf("no samples: scale %v, want 1", f)
	}
	ref := float64(hostKernelRef)
	h.samples = []float64{2 * ref, ref / 2, 4 * ref}
	if f := h.scale(); f != 0.5 {
		t.Errorf("samples 2, 0.5, 4 × ref: scale %v, want 0.5", f)
	}
	if len(h.samples) != 0 {
		t.Errorf("%d samples left after scale", len(h.samples))
	}
	h.sample()
	if len(h.samples) != 1 || h.samples[0] <= 0 {
		t.Errorf("sample recorded %v", h.samples)
	}
}
