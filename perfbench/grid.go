package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// grid-sweep: every topology family × a seeded ladder of distinct link
// rates × a ladder of traffic.RealCaseWith loads. Each cell is bound the
// way core.RunTopoGrid binds it and bounded by Scenario.Analyze and
// Scenario.Backlogs, closed loop, one caller. The run is a sequence of
// grids of gridRatesPerGrid rates each; every grid starts with an empty
// analysis cache and netcalc memo, as one `rtether topo -grid` process
// does. The netcalc intern table is the exception: it is never reset,
// so it keeps the curves of earlier grids. Within a grid, cells run rate
// by rate, so every slice of the run covers every family and load.
//
// The first gridCheckOps cells are also computed during set-up with both
// reuse layers off; the measured cells must match them exactly.

const (
	gridLoads        = 30   // extra remote terminals 0..29
	gridRatesPerGrid = 30   // rates per grid: 6 families × 30 × 30 cells
	gridRates        = 4096 // distinct rates, more than any run reaches
	gridCheckOps     = 720  // four rate blocks: checked against a reference, and digested
)

type gridState struct {
	fams  []topology.Family
	loads []int
	want  []int // expected bounded connections per load
	rates []simtime.Rate
	base  core.SimConfig
	ref   []string // cellText of the first gridCheckOps cells, computed without reuse
}

func setupGrid(e *env) (state, error) {
	rng := rand.New(rand.NewPCG(e.seed, 0x67726964))
	st := &gridState{fams: topology.Families(), base: core.DefaultSimConfig(analysis.Priority)}
	for l := range gridLoads {
		st.loads = append(st.loads, l)
		st.want = append(st.want, len(traffic.RealCaseWith(l).Messages))
	}
	// Distinct rates at kbit/s granularity over 10–100 Mbit/s.
	seen := map[int64]bool{}
	for len(st.rates) < gridRates {
		kbps := 10_000 + rng.Int64N(90_001)
		if !seen[kbps] {
			seen[kbps] = true
			st.rates = append(st.rates, simtime.Rate(kbps)*simtime.Kbps)
		}
	}
	err := withoutReuse(func() error {
		for b := 0; len(st.ref) < gridCheckOps; b++ {
			for _, fam := range st.fams {
				for _, load := range st.loads {
					res, bl, err := st.cell(nil, 0, fam, st.rates[b], load)
					if err != nil {
						return fmt.Errorf("reference cell %s/%v/%d: %w", fam.Key, st.rates[b], load, err)
					}
					st.ref = append(st.ref, cellText(fam.Key, st.rates[b], load, res, bl))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.corrupt {
		st.ref[0] += "corrupted\n"
	}
	return st, nil
}

func (st *gridState) measure(e *env, h *hostSpeed) (*outcome, error) {
	out := &outcome{}
	digest := sha256.New()
	var lat [2][]float64 // untraced, traced blocks (block 0 excluded)
	var cur round
	deadline := time.Now().Add(e.seconds)
	op := int64(0)
	for b, stop := 0, false; !stop; b++ {
		if b > 0 && b%gridRatesPerGrid == 0 {
			// A grid is a round: close it and start the next one with
			// empty caches. The live heap is taken after the first grid
			// only, outside its time: later grids add to the intern table,
			// so a later reading would grow with the grids a run completes.
			if len(out.rounds) == 0 {
				out.heapMB = liveHeapMB()
			}
			out.rounds = closeRound(out.rounds, cur, h)
			cur = round{}
			resetLayerCaches()
		}
		rate := st.rates[b%len(st.rates)]
		tr := traceBlock(e.tr, b)
		start, cpu0 := time.Now(), cpuNow()
	block:
		for _, fam := range st.fams {
			for li, load := range st.loads {
				// The run ends at the deadline, but not before the ops the
				// digest covers, so every run digests the same outputs.
				if op >= gridCheckOps && time.Now().After(deadline) {
					stop = true
					break block
				}
				c0 := cpuNow()
				res, bl, err := st.cell(tr, op, fam, rate, load)
				ms := cpuMs(c0)
				cur.lat = append(cur.lat, ms)
				if b > 0 {
					lat[b%2] = append(lat[b%2], ms)
				}
				out.attempted++
				if err == nil {
					err = st.check(op, li, fam.Key, rate, load, res, bl, digest)
				}
				if err != nil {
					out.failed++
					out.wrong++
					if out.wrong == 1 {
						out.notes = append(out.notes, fmt.Sprintf("first failure: %s/%v/%d: %v", fam.Key, rate, load, err))
					}
				} else {
					cur.ops++
				}
				op++
			}
		}
		cur.dur += time.Since(start)
		cur.cpu += cpuNow() - cpu0
		h.sample() // between rate blocks, outside the round's time
	}
	if len(out.rounds) == 0 {
		out.rounds = closeRound(out.rounds, cur, h)
	}
	out.digest, out.digestOps = fmt.Sprintf("%x", digest.Sum(nil)), gridCheckOps
	if e.tr != nil {
		out.layers = map[string]float64{"trace.overhead": overhead(lat)}
	}
	return out, nil
}

// cell binds and bounds one grid cell exactly as core.RunTopoGrid does.
func (st *gridState) cell(tr *tracer, op int64, fam topology.Family, rate simtime.Rate, load int) (*analysis.Result, *core.NetworkBacklogs, error) {
	root := tr.begin("op", op, 0)
	defer tr.end(root)
	id := tr.begin("traffic.real_case_with", op, root)
	set := traffic.RealCaseWith(load)
	tr.end(id)
	id = tr.begin("topology.build", op, root)
	net := fam.Build(set.Stations())
	tr.end(id)
	cfg := st.base
	cfg.LinkRate = rate
	s := &core.Scenario{
		Name: fmt.Sprintf("topo grid %s/%v/%d RTs", fam.Key, rate, load),
		Set:  set,
		Net:  net,
		Sim:  cfg,
	}
	id = tr.begin("core.analyze", op, root)
	res, err := s.Analyze(cfg.Approach)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("core.backlogs", op, root)
	bl, err := s.Backlogs()
	tr.end(id)
	return res, bl, err
}

// check holds a cell to its expected output: every connection bounded,
// every bound positive, a backlog table per plane, and, for the first
// gridCheckOps cells, the exact text of the reference, which it adds to
// the digest.
func (st *gridState) check(op int64, li int, fam string, rate simtime.Rate, load int,
	res *analysis.Result, bl *core.NetworkBacklogs, digest io.Writer) error {
	if len(res.Flows) != st.want[li] {
		return fmt.Errorf("%d connections bounded, want %d", len(res.Flows), st.want[li])
	}
	for _, f := range res.Flows {
		if f.EndToEnd <= 0 {
			return fmt.Errorf("connection %s: non-positive bound %v", f.Spec.Msg.Name, f.EndToEnd)
		}
	}
	if len(bl.Planes) == 0 || len(bl.Ordered()) == 0 {
		return errors.New("empty backlog table")
	}
	if op < int64(len(st.ref)) {
		text := cellText(fam, rate, load, res, bl)
		if text != st.ref[op] {
			return errors.New("bounds differ from the reference computed without reuse")
		}
		io.WriteString(digest, text)
	}
	return nil
}

// cellText renders every bound of one cell, exactly.
func cellText(fam string, rate simtime.Rate, load int, res *analysis.Result, bl *core.NetworkBacklogs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d\n", fam, rate.BitsPerSecond(), load)
	for _, f := range res.Flows {
		fmt.Fprintf(&b, "%s:%d:%d:%v\n", f.Spec.Msg.Name, int64(f.EndToEnd), int64(f.Floor), f.Met)
	}
	for _, ke := range bl.Ordered() {
		fmt.Fprintf(&b, "%s=%d/%v\n", ke.Key, ke.Edge.Bound.Bits(), ke.Edge.Unstable)
	}
	return b.String()
}
