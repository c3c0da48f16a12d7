// Command perfbench is the repository's benchmark: one single-process
// program that generates its inputs from a seed, runs one workload for a
// fixed wall-clock span, checks every output, and prints every metric by
// name with its unit. Run it from the repository root:
//
//	bash perfbench/run.sh --workload grid-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// taken from spans recorded around calls into each layer. A human-readable
// summary, the seed and an output digest go to standard error, and the
// same record is written under .bench_build/results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir receives the results and spans of every run, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

// setupReps is how many times a run builds its inputs and expected
// outputs, each time from empty reuse layers as a fresh process would;
// setup_s is the median of their scaled CPU times, the first counted
// from process start, so one slow set-up does not move it. The host
// speed is sampled setupKernels times right after each set-up.
const (
	setupReps    = 5
	setupKernels = 5
)

// env is what a workload receives: the seed, the measuring span and,
// in traced runs, the span recorder.
type env struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil in untraced runs
	root    string  // checkout root, for the committed fixtures
	// corrupt, set only by the benchmark's own tests, damages one
	// expected output during set-up so the output check must fire.
	corrupt bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup generates the inputs and expected outputs from e.seed.
	setup func(e *env) (state, error)
}

// state is a set-up workload, ready to measure.
type state interface {
	// measure runs the workload for e.seconds and checks every output,
	// sampling the host speed into h between ops.
	measure(e *env, h *hostSpeed) (*outcome, error)
}

// outcome is what one measured phase produced.
type outcome struct {
	attempted, failed int
	wrong             int     // ops whose output failed its check
	rounds            []round // complete rounds, or the one partial round
	maxRPS            float64 // open loop only: achieved rate at the highest passing rung
	openP50, openP99  float64 // open loop only: latency from due at the nominal rate, ms
	digest            string  // hash of the first digestOps outputs
	digestOps         int
	heapMB            float64            // live heap after a fixed amount of work; 0 = not reached
	layers            map[string]float64 // workload-specific per-layer values
	notes             []string           // extra lines for the summary
}

// round is one stretch of a run: end-to-end metrics are medians over
// rounds, so a stall in one round moves them little.
type round struct {
	ops int           // ops completed in the round
	dur time.Duration // wall time the round took
	cpu time.Duration // process CPU time the round took (see cpuNow)
	lat []float64     // per-op latency: process CPU time, ms
	// scale takes the round's CPU times to the reference host speed
	// (see hostSpeed); the printed times are scaled by it.
	scale float64
}

// closeRound appends r to rs, with the scale of the host speed sampled
// during it, unless it holds no op.
func closeRound(rs []round, r round, h *hostSpeed) []round {
	r.scale = h.scale()
	if r.ops == 0 || r.dur <= 0 || r.cpu <= 0 {
		return rs
	}
	return append(rs, r)
}

var workloads = []workload{
	{name: "grid-sweep", why: "every topology family x a seeded link-rate ladder x a load ladder, bound cell by cell in one fresh process: analysis and netcalc do the work, neighbouring cells share structure", setup: setupGrid},
	{name: "validate-mix", why: "a seeded stream of distinct scenarios decoded, bound and cross-validated by simulation with reps > 1: the simulator does the work and the analysis caches mostly miss", setup: setupValidate},
	{name: "serve-mix", why: "the HTTP service over loopback, one caller in closed loop then open-loop arrivals, mixing cache hits with novel scenarios: reaches decode, hashing, the result cache, admission and net/http", setup: setupServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-sweep, validate-mix or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measuring span in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> --seed <n> --seconds <n ≥ 1> --trace <0|1>")
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// One P: every workload has one caller in its measured phase, so the
	// process CPU time is the work of the ops and of the collector, with
	// no idle-P mark workers or spinning threads added to it.
	runtime.GOMAXPROCS(1)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: "."}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	res, rec, err := execute(w, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec.print(stderr)
	if err := rec.save(filepath.Join(outDir, "results")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
		if err := e.tr.write(path, w.name, e.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up setupReps times, measures it once, and
// assembles the metrics the run prints.
func execute(w workload, e *env) (*result, *record, error) {
	var st state
	var speed hostSpeed
	setups := make([]float64, setupReps)
	rawSetups := make([]float64, setupReps)
	for i := range setups {
		st = nil
		resetLayerCaches()
		start := time.Duration(0) // the process's CPU time so far counts too
		if i > 0 {
			// Every later set-up starts from a collected heap, as the
			// first does, so the garbage of the one before costs it
			// nothing.
			runtime.GC()
			start = cpuNow()
		}
		s, err := w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		rawSetups[i] = (cpuNow() - start).Seconds()
		st = s
		for range setupKernels {
			speed.sample()
		}
		setups[i] = rawSetups[i] * speed.scale()
	}
	resetLayerCaches()
	layers0 := readLayerCounters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out, err := st.measure(e, &speed)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	layers1 := readLayerCounters()
	if out.attempted < 1 || len(out.rounds) == 0 {
		return nil, nil, errors.New("no op completed")
	}
	st = nil
	endHeapMB := liveHeapMB()

	var rates, rawRates, wallRates, p50s, rawP50s, p90s, p99s, scales []float64
	samples := 0
	for _, r := range out.rounds {
		raw := float64(r.ops) / r.cpu.Seconds()
		rawP50 := quantile(r.lat, 0.50)
		rates = append(rates, raw/r.scale)
		rawRates = append(rawRates, raw)
		wallRates = append(wallRates, float64(r.ops)/r.dur.Seconds())
		p50s = append(p50s, rawP50*r.scale)
		rawP50s = append(rawP50s, rawP50)
		p90s = append(p90s, quantile(r.lat, 0.90)*r.scale)
		p99s = append(p99s, quantile(r.lat, 0.99)*r.scale)
		scales = append(scales, r.scale)
		samples += len(r.lat)
		out.notes = append(out.notes, fmt.Sprintf("round: %d ops in %.3f s wall, %.3f s CPU, host speed scale %.3f: %.1f ops/CPU-s (%.1f raw), %.1f ops/s, p50 %.4f ms (%.4f raw), p90 %.4f ms, p99 %.4f ms over %d samples",
			r.ops, r.dur.Seconds(), r.cpu.Seconds(), r.scale, raw/r.scale, raw, wallRates[len(wallRates)-1], rawP50*r.scale, rawP50, p90s[len(p90s)-1], p99s[len(p99s)-1], len(r.lat)))
	}
	if out.heapMB == 0 {
		// The run ended before the point where its workload takes the
		// heap (only in the benchmark's own short tests).
		out.heapMB = endHeapMB
	}
	endToEnd := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_cpu_s": median(rates),
		"p50_ms":        median(p50s),
		"heap_live_mb":  out.heapMB,
	}
	// Measured but kept out of the printed metrics: on a shared host their
	// spread between runs is wider than any bound (see README.md).
	extra := map[string]float64{
		"p90_ms": median(p90s), "p99_ms": median(p99s), "ops_per_s": median(wallRates),
		"raw_ops_per_cpu_s": median(rawRates), "raw_p50_ms": median(rawP50s), "raw_setup_s": median(rawSetups),
		"host_scale": median(scales),
	}
	if out.maxRPS > 0 {
		extra["max_rps"] = out.maxRPS
		extra["open_p50_ms"], extra["open_p99_ms"] = out.openP50, out.openP99
	}
	rec := &record{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds.Seconds(), Traced: e.tr != nil,
		Attempted: out.attempted, Failed: out.failed, Wrong: out.wrong,
		Samples: samples, Rounds: len(out.rounds), Digest: out.digest, DigestOps: out.digestOps,
		Notes: out.notes, Metrics: map[string]metric{},
	}
	res := &result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if e.tr == nil {
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metric{Value: endToEnd[d.name], Unit: d.unit}
		}
		rec.Extra = extra
	} else {
		per := e.tr.layerMetrics()
		for k, v := range layerDeltas(layers0, layers1) {
			per[k] = v
		}
		for k, v := range goStats(ms0, ms1, out.attempted) {
			per[k] = v
		}
		for k, v := range out.layers {
			per[k] = v
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{Value: per[d.name], Unit: d.unit}
		}
	}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v
	}
	return res, rec, nil
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// goStats turns two runtime.MemStats snapshots into allocation and GC
// metrics per op.
func goStats(a, b runtime.MemStats, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"go.allocs_per_op":      float64(b.Mallocs-a.Mallocs) / n,
		"go.alloc_bytes_per_op": float64(b.TotalAlloc-a.TotalAlloc) / n,
		"go.gc_cycles":          float64(b.NumGC - a.NumGC),
	}
}

// metricDef names one printed metric; BENCHMARK.json lists the same.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"topology.load_p50_us", "us", "lower"},
	{"topology.load_p99_us", "us", "lower"},
	{"core.bind_p50_us", "us", "lower"},
	{"core.bind_p99_us", "us", "lower"},
	{"core.hash_p50_us", "us", "lower"},
	{"core.hash_p99_us", "us", "lower"},
	{"core.analyze_p50_us", "us", "lower"},
	{"core.analyze_p99_us", "us", "lower"},
	{"core.backlogs_p50_us", "us", "lower"},
	{"core.backlogs_p99_us", "us", "lower"},
	{"core.validate_p50_us", "us", "lower"},
	{"core.validate_p99_us", "us", "lower"},
	{"core.simulate_p50_us", "us", "lower"},
	{"core.simulate_p99_us", "us", "lower"},
	{"des.events", "count", "lower"},
	{"des.ns_per_event", "ns", "lower"},
	{"analysis.cache_hit_ratio", "ratio", "higher"},
	{"analysis.cache_entries", "count", "lower"},
	{"netcalc.memo_hit_ratio", "ratio", "higher"},
	{"netcalc.interned", "count", "lower"},
	{"render.analyze_p50_us", "us", "lower"},
	{"render.backlog_p50_us", "us", "lower"},
	{"render.validate_p50_us", "us", "lower"},
	{"serve.handler_p50_us", "us", "lower"},
	{"serve.transport_p50_us", "us", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.validate_p99_ms", "ms", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.coalesced", "count", "higher"},
	{"serve.evictions", "count", "lower"},
	{"serve.computes", "count", "lower"},
	{"serve.admission_wait_max_us", "us", "lower"},
	{"serve.queued_peak", "count", "lower"},
	{"serve.gen_late_p99_ms", "ms", "lower"},
	{"share.analysis", "ratio", "lower"},
	{"share.simulate", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
}

// record is the run's full account: the printed metrics plus the seed,
// the sample count behind each percentile and the output digest.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	Samples   int                `json:"latency_samples"`
	Rounds    int                `json:"rounds"`
	Digest    string             `json:"digest"`
	DigestOps int                `json:"digest_ops"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"` // measured, but no bound holds them
}

func (r *record) print(w io.Writer) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "  attempted=%d failed=%d wrong=%d fail_ratio=%g latency_samples=%d rounds=%d\n",
		r.Attempted, r.Failed, r.Wrong, ratio, r.Samples, r.Rounds)
	fmt.Fprintf(w, "  digest(first %d ops)=%s\n", r.DigestOps, r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range []string{"host_scale", "raw_setup_s", "raw_ops_per_cpu_s", "raw_p50_ms", "ops_per_s", "p90_ms", "p99_ms", "open_p50_ms", "open_p99_ms", "max_rps"} {
		if v, ok := r.Extra[k]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g (record only)\n", k, v)
		}
	}
}

func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	trace := 0
	if r.Traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}
