// Benchmark harness: one bench per figure, table and prose claim of the
// paper's evaluation (see EXPERIMENTS.md for the index), plus micro-benches
// of the hot paths. Each experiment bench reports the reproduced values as
// custom metrics (ms_*) so that `go test -bench=. -benchmem` regenerates
// the paper's rows/series directly in its output.
package repro

import (
	"bytes"
	"fmt"

	"testing"

	"repro/internal/afdx"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ethernet"
	"repro/internal/milstd1553"
	"repro/internal/netcalc"
	"repro/internal/shaper"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ---------------------------------------------------------------------------
// F1 — Figure 1: delay bounds of the two approaches on the real-case traffic.
// ---------------------------------------------------------------------------

// BenchmarkFigure1 regenerates Figure 1 and reports the per-class priority
// bounds and the worst FCFS bound in milliseconds.
func BenchmarkFigure1(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var fig *Figure1
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunFigure1(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	worstFCFS := simtime.Duration(0)
	for _, f := range fig.FCFS.Flows {
		if f.EndToEnd > worstFCFS {
			worstFCFS = f.EndToEnd
		}
	}
	b.ReportMetric(fig.Priority.ClassWorst[0].Milliseconds(), "ms_P0")
	b.ReportMetric(fig.Priority.ClassWorst[1].Milliseconds(), "ms_P1")
	b.ReportMetric(fig.Priority.ClassWorst[2].Milliseconds(), "ms_P2")
	b.ReportMetric(fig.Priority.ClassWorst[3].Milliseconds(), "ms_P3")
	b.ReportMetric(worstFCFS.Milliseconds(), "ms_FCFS")
}

// ---------------------------------------------------------------------------
// C1–C3 — the prose claims.
// ---------------------------------------------------------------------------

// BenchmarkClaimC1 reports the FCFS urgent-class bound and the violation
// count: "some real-time constraints are violated" at 10 Mbps.
func BenchmarkClaimC1(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = SingleHop(set, FCFS, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassWorst[P0].Milliseconds(), "ms_P0_bound")
	b.ReportMetric(float64(res.Violations), "violations")
}

// BenchmarkClaimC2 reports the priority urgent-class bound: below 3 ms.
func BenchmarkClaimC2(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = SingleHop(set, PriorityHandling, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassWorst[P0].Milliseconds(), "ms_P0_bound")
	b.ReportMetric(float64(res.Violations), "violations")
}

// BenchmarkClaimC3 reports the periodic-class bounds under both approaches
// at the bottleneck: priority < FCFS.
func BenchmarkClaimC3(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var fcfsMC, prioMC simtime.Duration
	for i := 0; i < b.N; i++ {
		fcfs, err := SingleHop(set, FCFS, cfg)
		if err != nil {
			b.Fatal(err)
		}
		prio, err := SingleHop(set, PriorityHandling, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j, f := range fcfs.Flows {
			if f.Spec.Msg.Dest == traffic.StationMC && f.Spec.Msg.Priority == P1 {
				fcfsMC, prioMC = f.EndToEnd, prio.Flows[j].EndToEnd
				break
			}
		}
	}
	b.ReportMetric(fcfsMC.Milliseconds(), "ms_P1_fcfs")
	b.ReportMetric(prioMC.Milliseconds(), "ms_P1_priority")
}

// ---------------------------------------------------------------------------
// B1 — the MIL-STD-1553B baseline.
// ---------------------------------------------------------------------------

// Benchmark1553Baseline simulates half a second of bus operation per
// iteration and reports the urgent worst case and utilization.
func Benchmark1553Baseline(b *testing.B) {
	set := RealCase()
	var base *Baseline1553
	var err error
	for i := 0; i < b.N; i++ {
		base, err = RunBaseline1553(set, traffic.StationMC, 500*simtime.Millisecond, Serial(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(base.Flows["ew/threat-warning"].WorstCase.Milliseconds(), "ms_urgent_worst")
	b.ReportMetric(100*base.Utilization, "util_pct")
}

// ---------------------------------------------------------------------------
// S1 — simulation vs bounds.
// ---------------------------------------------------------------------------

// BenchmarkSimFigure1 runs the full network simulation (priority approach)
// and reports observed worst latencies per class.
func BenchmarkSimFigure1(b *testing.B) {
	set := RealCase()
	cfg := DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 500 * simtime.Millisecond
	var res *SimResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Simulate(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassWorst[0].Milliseconds(), "ms_P0_observed")
	b.ReportMetric(res.ClassWorst[1].Milliseconds(), "ms_P1_observed")
	b.ReportMetric(float64(res.Events)/float64(b.Elapsed().Seconds()+1e-12)/1e6*float64(b.N), "Mevents_per_s")
}

// BenchmarkSimFCFS is the FCFS counterpart of BenchmarkSimFigure1.
func BenchmarkSimFCFS(b *testing.B) {
	set := RealCase()
	cfg := DefaultSimConfig(FCFS)
	cfg.Horizon = 500 * simtime.Millisecond
	var res *SimResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Simulate(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassWorst[0].Milliseconds(), "ms_P0_observed")
}

// ---------------------------------------------------------------------------
// A1/A2 — ablations.
// ---------------------------------------------------------------------------

// BenchmarkRateSweep reports the FCFS urgent bound at 10/100/1000 Mbps:
// the "higher rate is not sufficient" series.
func BenchmarkRateSweep(b *testing.B) {
	set := RealCase()
	rates := []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps, simtime.Gbps}
	var points []core.RatePoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = core.RunRateSweep(set, rates, DefaultConfig(), Serial(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].FCFSUrgent.Milliseconds(), "ms_fcfs_10M")
	b.ReportMetric(points[1].FCFSUrgent.Milliseconds(), "ms_fcfs_100M")
	b.ReportMetric(points[2].FCFSUrgent.Milliseconds(), "ms_fcfs_1G")
}

// BenchmarkLoadSweep reports the urgent bounds as the station count grows.
func BenchmarkLoadSweep(b *testing.B) {
	var points []core.LoadPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = core.RunLoadSweep([]int{0, 8, 16}, DefaultConfig(), Serial(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].FCFSUrgent.Milliseconds(), "ms_fcfs_0rt")
	b.ReportMetric(points[2].FCFSUrgent.Milliseconds(), "ms_fcfs_16rt")
	b.ReportMetric(points[2].PriorityUrgent.Milliseconds(), "ms_prio_16rt")
}

// ---------------------------------------------------------------------------
// J1 — jitter bounds (the paper's future work).
// ---------------------------------------------------------------------------

// BenchmarkJitter reports worst-case jitter of the urgent class under both
// approaches.
func BenchmarkJitter(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var fcfsJ, prioJ simtime.Duration
	for i := 0; i < b.N; i++ {
		fcfs, err := SingleHop(set, FCFS, cfg)
		if err != nil {
			b.Fatal(err)
		}
		prio, err := SingleHop(set, PriorityHandling, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fcfsJ, prioJ = 0, 0
		for j, f := range fcfs.Flows {
			if f.Spec.Msg.Priority != P0 {
				continue
			}
			if f.Jitter > fcfsJ {
				fcfsJ = f.Jitter
			}
			if prio.Flows[j].Jitter > prioJ {
				prioJ = prio.Flows[j].Jitter
			}
		}
	}
	b.ReportMetric(fcfsJ.Milliseconds(), "ms_jitter_fcfs")
	b.ReportMetric(prioJ.Milliseconds(), "ms_jitter_priority")
}

// ---------------------------------------------------------------------------
// A3–A5 — further ablations, and the AFDX profile comparison (A6).
// ---------------------------------------------------------------------------

// BenchmarkBurstAblation reports the bottleneck FCFS bound as the shaper
// bucket grows from the paper's one message to four: the bound scales
// linearly in the burst — why the paper pins bᵢ to one message.
func BenchmarkBurstAblation(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var points []analysis.BurstPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = analysis.RunBurstAblation(set, cfg, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].Bound.Milliseconds(), "ms_burst1")
	b.ReportMetric(points[1].Bound.Milliseconds(), "ms_burst2")
	b.ReportMetric(points[2].Bound.Milliseconds(), "ms_burst4")
}

// BenchmarkStaircaseTightness compares the exact staircase bound of the
// bottleneck against the token-bucket hull the paper uses.
func BenchmarkStaircaseTightness(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var exact simtime.Duration
	var err error
	for i := 0; i < b.N; i++ {
		exact, err = analysis.StaircaseBound(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	specs := analysis.Specs(set, cfg)
	b.ReportMetric(exact.Milliseconds(), "ms_staircase")
	hullSpecs := map[string][]analysis.FlowSpec{}
	for _, f := range specs {
		hullSpecs[f.Msg.Dest] = append(hullSpecs[f.Msg.Dest], f)
	}
	hull, err := analysis.FCFSBound(hullSpecs[traffic.StationMC], cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(hull.Milliseconds(), "ms_hull")
}

// BenchmarkCapacityPlanning reports the minimal link rate per approach:
// the bandwidth price of not using priorities.
func BenchmarkCapacityPlanning(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var fcfs, prio simtime.Rate
	var err error
	for i := 0; i < b.N; i++ {
		fcfs, err = analysis.MinimalRate(set, FCFS, cfg, simtime.Mbps, simtime.Gbps, 100*simtime.Kbps)
		if err != nil {
			b.Fatal(err)
		}
		prio, err = analysis.MinimalRate(set, PriorityHandling, cfg, simtime.Mbps, simtime.Gbps, 100*simtime.Kbps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fcfs)/1e6, "Mbps_fcfs_min")
	b.ReportMetric(float64(prio)/1e6, "Mbps_priority_min")
}

// BenchmarkAFDXProfile reports the urgent bound under the civil 2-class
// AFDX profile against the paper's military 4-class one.
func BenchmarkAFDXProfile(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var cmp []afdx.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = afdx.CompareBounds(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var civil, military simtime.Duration
	for i, m := range set.Messages {
		if m.Priority == P0 && m.Dest == traffic.StationMC {
			civil, military = cmp[i].Civil, cmp[i].Military
			break
		}
	}
	b.ReportMetric(military.Milliseconds(), "ms_military_P0")
	b.ReportMetric(civil.Milliseconds(), "ms_civil_P0")
}

// BenchmarkBabbler (R1) reports the worst urgent latency with a 400×
// babbling station, shaped vs unshaped — the containment the paper's
// traffic control buys.
func BenchmarkBabbler(b *testing.B) {
	set := RealCase()
	var shaped, unshaped simtime.Duration
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig(FCFS)
		cfg.Horizon = 500 * simtime.Millisecond
		cfg.Babbler = "nav/attitude"
		cfg.BabbleFactor = 400
		res, err := Simulate(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		shaped = res.ClassWorst[P0]
		cfg.BypassShapers = true
		res, err = Simulate(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		unshaped = res.ClassWorst[P0]
	}
	b.ReportMetric(shaped.Milliseconds(), "ms_P0_shaped")
	b.ReportMetric(unshaped.Milliseconds(), "ms_P0_unshaped")
}

// BenchmarkSchedulerComparison (A7/A8) reports the urgent bound at the
// bottleneck under four disciplines: FCFS, the paper's non-preemptive
// strict priority, idealized preemptive priority (TSN express), and
// Deficit Round Robin.
func BenchmarkSchedulerComparison(b *testing.B) {
	set := RealCase()
	cfg := DefaultConfig()
	var cmp *analysis.SchedulerComparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = analysis.CompareSchedulers(set, cfg, analysis.EqualDRRQuanta())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.FCFS.Milliseconds(), "ms_fcfs")
	b.ReportMetric(cmp.StrictPriority.Milliseconds(), "ms_strict")
	b.ReportMetric(cmp.PreemptivePriority.Milliseconds(), "ms_preemptive")
	if cmp.DRRStable {
		b.ReportMetric(cmp.DeficitRoundRobin.Milliseconds(), "ms_drr")
	}
}

// ---------------------------------------------------------------------------
// M1 — the cascaded two-switch architecture (extension).
// ---------------------------------------------------------------------------

// BenchmarkTwoSwitch reports the urgent bound across the trunk and the
// worst observed latency from the two-switch simulation.
func BenchmarkTwoSwitch(b *testing.B) {
	set := RealCase()
	simCfg := DefaultSimConfig(PriorityHandling)
	simCfg.Horizon = 500 * simtime.Millisecond
	var bounds *Result
	var sim *SimResult
	var err error
	for i := 0; i < b.N; i++ {
		bounds, err = analysis.TwoSwitchEndToEnd(set, analysis.Priority, simCfg.AnalysisConfig(), analysis.SplitByName)
		if err != nil {
			b.Fatal(err)
		}
		sim, err = core.SimulateTwoSwitch(set, simCfg, analysis.SplitByName)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bounds.ClassWorst[P0].Milliseconds(), "ms_P0_bound")
	b.ReportMetric(sim.ClassWorst[P0].Milliseconds(), "ms_P0_observed")
	b.ReportMetric(float64(bounds.Violations), "violations")
}

// BenchmarkTreeTopology (M2) reports the urgent bound on a three-switch
// line (front / mid / aft fuselage), the deepest realistic cascade.
func BenchmarkTreeTopology(b *testing.B) {
	set := RealCase()
	tree := &analysis.Tree{
		Switches:      3,
		Links:         [][2]int{{0, 1}, {1, 2}},
		StationSwitch: map[string]int{},
	}
	for _, st := range set.Stations() {
		switch st {
		case traffic.StationMC, traffic.StationDisplay:
			tree.StationSwitch[st] = 0
		case traffic.StationNav, traffic.StationADC, traffic.StationRadar, traffic.StationEW:
			tree.StationSwitch[st] = 1
		default:
			tree.StationSwitch[st] = 2
		}
	}
	cfg := DefaultConfig()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = analysis.TreeEndToEnd(set, analysis.Priority, cfg, tree)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassWorst[P0].Milliseconds(), "ms_P0_bound")
	b.ReportMetric(float64(res.Violations), "violations")
}

// ---------------------------------------------------------------------------
// M3 — the unified engine's new scenario families (daisy-chain backbone and
// dual-redundant network).
// ---------------------------------------------------------------------------

// BenchmarkChainTopology simulates the real case over a four-switch
// daisy-chain backbone on the unified engine and reports the worst urgent
// latency against the tree-composed bound.
func BenchmarkChainTopology(b *testing.B) {
	set := RealCase()
	chain := ChainNetwork(set.Stations(), 4)
	cfg := DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 250 * simtime.Millisecond
	bounds, err := TreeEndToEnd(set, PriorityHandling, DefaultConfig(), chain.Tree())
	if err != nil {
		b.Fatal(err)
	}
	var res *SimResult
	for i := 0; i < b.N; i++ {
		res, err = SimulateNetwork(set, cfg, chain)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bounds.ClassWorst[P0].Milliseconds(), "ms_P0_bound")
	b.ReportMetric(res.ClassWorst[P0].Milliseconds(), "ms_P0_observed")
	b.ReportMetric(float64(bounds.Violations), "violations")
}

// BenchmarkDualNetwork simulates the dual-redundant star under a lossy
// medium and reports the delivery gain redundancy buys over one plane.
func BenchmarkDualNetwork(b *testing.B) {
	set := RealCase()
	cfg := DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 250 * simtime.Millisecond
	cfg.BER = 1e-5
	dual := RedundantNetwork(StarNetwork(set.Stations()), 2)
	var single, both *SimResult
	var err error
	for i := 0; i < b.N; i++ {
		single, err = Simulate(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		both, err = SimulateNetwork(set, cfg, dual)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(single.TotalDelivered()), "delivered_single")
	b.ReportMetric(float64(both.TotalDelivered()), "delivered_dual")
	b.ReportMetric(float64(both.Redundant), "redundant_copies")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrate hot paths.
// ---------------------------------------------------------------------------

// BenchmarkNetcalcHorizontalDeviation measures the core bound computation.
func BenchmarkNetcalcHorizontalDeviation(b *testing.B) {
	specs := analysis.Specs(RealCase(), DefaultConfig())
	agg := netcalc.Zero()
	for _, f := range specs {
		agg = agg.Add(netcalc.TokenBucket(float64(f.B.Bits()), float64(f.R.BitsPerSecond())))
	}
	beta := netcalc.RateLatency(10e6, 140e-6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netcalc.HorizontalDeviation(agg, beta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESThroughput measures raw event-loop throughput.
func BenchmarkDESThroughput(b *testing.B) {
	sim := des.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			sim.After(1000, tick)
		}
	}
	sim.At(0, tick)
	b.ResetTimer()
	sim.Run()
}

// BenchmarkShaperSubmit measures the token-bucket release path.
func BenchmarkShaperSubmit(b *testing.B) {
	sim := des.New(1)
	s := shaper.New("bench", sim, 1<<20, simtime.Gbps, func(*ethernet.Frame) {})
	f := &ethernet.Frame{PayloadLen: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(f)
		sim.RunFor(simtime.Microsecond)
	}
}

// BenchmarkSwitchForwarding measures frames through a 2-station switch.
func BenchmarkSwitchForwarding(b *testing.B) {
	sim := des.New(1)
	sw := ethernet.NewSwitch(sim, ethernet.SwitchConfig{Name: "sw", Kind: ethernet.QueuePriority})
	a := ethernet.NewStation(sim, "a", ethernet.StationAddr(1), sw, 1, simtime.Gbps, 0, ethernet.QueuePriority, 0)
	ethernet.NewStation(sim, "b", ethernet.StationAddr(2), sw, 2, simtime.Gbps, 0, ethernet.QueuePriority, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(&ethernet.Frame{Dst: ethernet.StationAddr(2), Tagged: true, Priority: 7, PayloadLen: 64})
		sim.Run()
	}
}

// BenchmarkFrameMarshal measures the wire codec.
func BenchmarkFrameMarshal(b *testing.B) {
	f := &ethernet.Frame{
		Dst: ethernet.StationAddr(1), Src: ethernet.StationAddr(2),
		Tagged: true, Priority: 7, VLANID: 42,
		Type: ethernet.EtherTypeAvionics, PayloadLen: 64,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark1553MinorFrame measures one simulated second of bus schedule
// execution.
func Benchmark1553MinorFrame(b *testing.B) {
	set := RealCase()
	schedule, err := milstd1553.Build(set, traffic.StationMC)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := des.New(1)
		bus := milstd1553.NewBus(sim, schedule)
		traffic.Start(sim, set, traffic.SourceConfig{Mode: traffic.Greedy, AlignPhases: true}, bus.Release)
		bus.Start()
		sim.RunFor(simtime.Second)
	}
}

// ---------------------------------------------------------------------------
// The scenario-sweep engine.
// ---------------------------------------------------------------------------

// BenchmarkScenarioLoad measures the declarative config path: parse,
// validate and route-precompute the real-case dual-redundant scenario
// (94 connections, network + sim sections, per-link overrides) from its
// JSON bytes — the fixed cost every `rtether ... -config` invocation and
// every Experiment bind pays before the first simulated nanosecond.
func BenchmarkScenarioLoad(b *testing.B) {
	cfg, err := ScenarioTemplate("dual")
	if err != nil {
		b.Fatal(err)
	}
	// Make it heterogeneous: a fast mission-computer access link, as the
	// migration study would configure.
	cfg.Network.StationRates = map[string]simtime.Rate{"mission-computer": 100 * simtime.Mbps}
	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := topology.Load(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewScenario(loaded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep runs the rate-sweep grid cross-validation (S3) — 8 cells
// × 4 simulation replications each — under growing worker counts. The
// serial and parallel runs produce bit-identical cells; on a machine with
// ≥ 8 CPUs the workers=8 case completes the same grid ≥ 3× faster than
// workers=1 (on fewer CPUs the speedup is capped by GOMAXPROCS).
func BenchmarkSweep(b *testing.B) {
	grid := core.Grid([]simtime.Rate{10 * simtime.Mbps, 25 * simtime.Mbps,
		50 * simtime.Mbps, 100 * simtime.Mbps}, []int{0, 8})
	cfg := core.DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 100 * simtime.Millisecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, err := core.RunGrid(grid, cfg, core.SweepOptions{Workers: workers, Reps: 4, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range cells {
					if !c.Sound() {
						b.Fatalf("%v/%d RTs: bound violated", c.Point.Rate, c.Point.ExtraRTs)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// M10/M11 — incremental analysis: memoized curve algebra + analysis plans.
// ---------------------------------------------------------------------------

// reportHitRates attaches the warm-path hit rates of both memo layers to
// a benchmark, measured as deltas against the post-priming counters.
func reportHitRates(b *testing.B, m0 netcalc.MemoStats, c0 analysis.CacheStats) {
	m1, c1 := netcalc.Stats(), analysis.DefaultCacheStats()
	rate := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(rate(m1.Hits-m0.Hits, m1.Misses-m0.Misses), "memo-hit-rate")
	b.ReportMetric(rate(c1.Hits-c0.Hits, c1.Misses-c0.Misses), "cache-hit-rate")
}

// topoGridBenchPoints is the CLI smoke grid (`rtether topo -grid`): every
// architecture family × {10, 100 Mbps} × {0, 8 extra RTs}.
func topoGridBenchPoints() []core.TopoPoint {
	return core.TopoGrid(topology.Families(),
		[]simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps},
		[]int{0, 8})
}

// BenchmarkTopoGrid measures the full topology × rate × load
// cross-validation with the memoized layers cold (both caches emptied
// every iteration) versus warm (primed once) — the before/after pair of
// EXPERIMENTS.md M10. The cells must be identical either way; the cold
// case bounds the regression a cache-less run would see.
func BenchmarkTopoGrid(b *testing.B) {
	points := topoGridBenchPoints()
	cfg := core.DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 20 * simtime.Millisecond
	opts := core.SweepOptions{Workers: 1, Reps: 1, Seed: 1}
	run := func(b *testing.B) {
		cells, err := core.RunTopoGrid(points, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != len(points) {
			b.Fatalf("got %d cells, want %d", len(cells), len(points))
		}
	}
	b.Run("off", func(b *testing.B) {
		prevMemo := netcalc.SetMemoEnabled(false)
		prevCache := analysis.SetCacheEnabled(false)
		defer func() {
			netcalc.SetMemoEnabled(prevMemo)
			analysis.SetCacheEnabled(prevCache)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netcalc.ResetMemo()
			analysis.ResetDefaultCache()
			run(b)
		}
		b.StopTimer()
		// The per-iteration resets zero both counter sets, so the live
		// counters are exactly the last pass's single-grid hit rates.
		reportHitRates(b, netcalc.MemoStats{}, analysis.CacheStats{})
	})
	b.Run("warm", func(b *testing.B) {
		netcalc.ResetMemo()
		analysis.ResetDefaultCache()
		run(b) // prime
		m0, c0 := netcalc.Stats(), analysis.DefaultCacheStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
		b.StopTimer()
		reportHitRates(b, m0, c0)
	})
}

// BenchmarkAnalysisGrid measures the pure analysis cost of a 30×30
// (rate × load) grid over the 4-switch chain architecture — the
// parameter-space shape ROADMAP item 2 targets, with no simulation time
// diluting the comparison. Cold empties both memo layers every
// iteration; warm reuses them across cells and iterations.
func BenchmarkAnalysisGrid(b *testing.B) {
	rates := make([]simtime.Rate, 30)
	for i := range rates {
		rates[i] = simtime.Rate(10+3*i) * simtime.Mbps
	}
	loads := make([]int, 30)
	for i := range loads {
		loads[i] = i
	}
	// One workload and tree per load level; rate only changes the config.
	sets := make([]*traffic.Set, len(loads))
	trees := make([]*analysis.Tree, len(loads))
	for i, l := range loads {
		sets[i] = traffic.RealCaseWith(l)
		tr := &analysis.Tree{Switches: 4, Links: [][2]int{{0, 1}, {1, 2}, {2, 3}},
			StationSwitch: map[string]int{}}
		for j, s := range sets[i].Stations() {
			tr.StationSwitch[s] = j % 4
		}
		trees[i] = tr
	}
	run := func(b *testing.B) {
		for _, r := range rates {
			cfg := analysis.DefaultConfig()
			cfg.LinkRate = r
			for i := range loads {
				if _, err := analysis.TreeEndToEnd(sets[i], PriorityHandling, cfg, trees[i]); err != nil {
					b.Fatal(err)
				}
				if _, err := analysis.EdgeBacklogs(sets[i], cfg, trees[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		prevMemo := netcalc.SetMemoEnabled(false)
		prevCache := analysis.SetCacheEnabled(false)
		defer func() {
			netcalc.SetMemoEnabled(prevMemo)
			analysis.SetCacheEnabled(prevCache)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netcalc.ResetMemo()
			analysis.ResetDefaultCache()
			run(b)
		}
		b.StopTimer()
		// The per-iteration resets zero both counter sets, so the live
		// counters are exactly the last pass's single-grid hit rates.
		reportHitRates(b, netcalc.MemoStats{}, analysis.CacheStats{})
	})
	b.Run("warm", func(b *testing.B) {
		netcalc.ResetMemo()
		analysis.ResetDefaultCache()
		run(b) // prime
		m0, c0 := netcalc.Stats(), analysis.DefaultCacheStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
		b.StopTimer()
		reportHitRates(b, m0, c0)
	})
}
