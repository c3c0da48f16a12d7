package analysis

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/netcalc"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file keeps the historical whole-network algorithms as oracles: the
// per-flow, map-grouped formulations that predate analysis plans, with no
// reuse of any kind. Plan evaluation (plan.go) must reproduce them byte
// for byte. They are called only by tests, by the scenariogen invariant
// sweep and by the plan self-test (SelfTest).

// ReferenceTreeEndToEnd is the historical TreeEndToEnd, kept as the
// oracle plan evaluation must reproduce: per-flow muxBound calls
// (evaluated twice per flow and trunk edge, as the old trunk stage did),
// map-grouped stages and no reuse of any kind. Its trunk order breaks
// ties on the packed key from*1000+to, so it is a faithful oracle on
// trees below 1000 switches only. It is slow by design; production code
// calls TreeEndToEnd.
func ReferenceTreeEndToEnd(set *traffic.Set, approach Approach, cfg Config, tree *Tree) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("analysis: nil tree")
	}
	if err := tree.Validate(set.Stations()); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)

	linkIdx := map[dirEdge]int{}
	for i, l := range tree.Links {
		linkIdx[dirEdge{l[0], l[1]}] = i
		linkIdx[dirEdge{l[1], l[0]}] = i
	}
	paths := make([][]dirEdge, len(specs))
	for i, f := range specs {
		sp, err := tree.SwitchPath(f.Msg.Source, f.Msg.Dest)
		if err != nil {
			return nil, err
		}
		for h := 0; h+1 < len(sp); h++ {
			paths[i] = append(paths[i], dirEdge{sp[h], sp[h+1]})
		}
	}

	bySource := groupBy(specs, func(f FlowSpec) string { return f.Msg.Source })
	stage1 := make([]simtime.Duration, len(specs))
	fixed := make([]simtime.Duration, len(specs))
	current := make([]FlowSpec, len(specs))
	for i, f := range specs {
		srcCfg := cfg
		srcCfg.TTechno = 0
		srcCfg.LinkRate = tree.StationRate(f.Msg.Source, cfg.LinkRate)
		d, err := muxBound(bySource[f.Msg.Source], f, approach, srcCfg)
		if err != nil {
			return nil, fmt.Errorf("station %s: %w", f.Msg.Source, err)
		}
		stage1[i] = d
		fixed[i] = tree.StationProp(f.Msg.Source)
		current[i] = inflate(f, d)
	}

	edgeFlows := map[dirEdge][]int{}
	deps := map[dirEdge]map[dirEdge]bool{}
	indeg := map[dirEdge]int{}
	for i, p := range paths {
		for h, e := range p {
			if _, ok := indeg[e]; !ok {
				indeg[e] = 0
			}
			edgeFlows[e] = append(edgeFlows[e], i)
			if h > 0 {
				prev := p[h-1]
				if deps[prev] == nil {
					deps[prev] = map[dirEdge]bool{}
				}
				if !deps[prev][e] {
					deps[prev][e] = true
					indeg[e]++
				}
			}
		}
	}
	var order []dirEdge
	var ready []dirEdge
	//rtlint:sorted-after
	for e, d := range indeg {
		if d == 0 {
			ready = append(ready, e)
		}
	}
	sort.Slice(ready, func(a, b int) bool {
		return ready[a].from*1000+ready[a].to < ready[b].from*1000+ready[b].to
	})
	for len(ready) > 0 {
		e := ready[0]
		ready = ready[1:]
		order = append(order, e)
		//rtlint:sorted-after
		for next := range deps[e] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			return ready[a].from*1000+ready[a].to < ready[b].from*1000+ready[b].to
		})
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("analysis: cyclic trunk dependencies — topology is not a tree")
	}

	trunkDelay := make([]simtime.Duration, len(specs))
	for _, e := range order {
		li := linkIdx[e]
		edgeCfg := cfg
		edgeCfg.LinkRate = tree.TrunkRate(li, cfg.LinkRate)
		flows := edgeFlows[e]
		agg := make([]FlowSpec, 0, len(flows))
		for _, i := range flows {
			agg = append(agg, current[i])
		}
		for _, i := range flows {
			d, err := muxBound(agg, current[i], approach, edgeCfg)
			if err != nil {
				return nil, fmt.Errorf("trunk %d→%d: %w", e.from, e.to, err)
			}
			trunkDelay[i] += d
			fixed[i] += tree.TrunkProp(li)
		}
		// The historical double evaluation: the inflation loop recomputed
		// every bound instead of reusing the accumulation loop's values.
		for _, i := range flows {
			d, err := muxBound(agg, current[i], approach, edgeCfg)
			if err != nil {
				return nil, err
			}
			current[i] = inflate(current[i], d)
		}
	}

	byDest := groupBy(current, func(f FlowSpec) string { return f.Msg.Dest })
	res := &Result{Approach: approach, Cfg: cfg}
	for i, f := range specs {
		destCfg := cfg
		destCfg.LinkRate = tree.StationRate(f.Msg.Dest, cfg.LinkRate)
		d, err := muxBound(byDest[f.Msg.Dest], current[i], approach, destCfg)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		fixed[i] += tree.StationProp(f.Msg.Dest)
		hops := len(paths[i]) + 2
		floor := simtime.TransmissionTime(f.B, tree.StationRate(f.Msg.Source, cfg.LinkRate)) +
			simtime.TransmissionTime(f.B, destCfg.LinkRate) +
			simtime.Duration(hops-1)*cfg.TTechno + fixed[i]
		for _, e := range paths[i] {
			floor += simtime.TransmissionTime(f.B, tree.TrunkRate(linkIdx[e], cfg.LinkRate))
		}
		pb := PathBound{
			Spec:        f,
			SourceDelay: stage1[i],
			PortDelay:   trunkDelay[i] + d,
			EndToEnd:    stage1[i] + trunkDelay[i] + d + fixed[i],
			Floor:       floor,
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// ReferenceEdgeBacklogs is the historical EdgeBacklogs, kept as the oracle
// plan evaluation must reproduce: flows routed one by one, edge groups
// built by map, and every edge's aggregate arrival curve summed flow by
// flow with the netcalc Add chain. It is slow by design; production code
// calls EdgeBacklogs.
func ReferenceEdgeBacklogs(set *traffic.Set, cfg Config, tree *Tree) (*EdgeBacklogResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("analysis: nil tree")
	}
	stations := set.Stations()
	if err := tree.Validate(stations); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)

	trunkFlows := map[dirEdge][]FlowSpec{}
	for _, f := range specs {
		sp, err := tree.SwitchPath(f.Msg.Source, f.Msg.Dest)
		if err != nil {
			return nil, err
		}
		for h := 0; h+1 < len(sp); h++ {
			e := dirEdge{sp[h], sp[h+1]}
			trunkFlows[e] = append(trunkFlows[e], f)
		}
	}
	bySource := groupBy(specs, func(f FlowSpec) string { return f.Msg.Source })
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })

	res := &EdgeBacklogResult{Cfg: cfg}
	price := func(e EdgeBacklog, flows []FlowSpec, rate simtime.Rate, ttechno simtime.Duration) error {
		edgeCfg := cfg
		edgeCfg.LinkRate = rate
		edgeCfg.TTechno = ttechno
		for _, f := range flows {
			e.Flows = append(e.Flows, f.Msg.Name)
		}
		b, err := referenceBacklogBound(flows, edgeCfg)
		switch {
		case errors.Is(err, ErrUnstable):
			e.Unstable = true
		case err != nil:
			return fmt.Errorf("edge %s: %w", e.Key(), err)
		default:
			e.Bound = b
		}
		res.Edges = append(res.Edges, e)
		return nil
	}
	for _, st := range stations {
		home := tree.StationSwitch[st]
		e := EdgeBacklog{Kind: EdgeUplink, From: st, To: swName(home), Switch: home, Link: -1}
		if err := price(e, bySource[st], tree.StationRate(st, cfg.LinkRate), 0); err != nil {
			return nil, err
		}
	}
	for li, l := range tree.Links {
		for _, d := range []dirEdge{{l[0], l[1]}, {l[1], l[0]}} {
			e := EdgeBacklog{Kind: EdgeTrunk, From: swName(d.from), To: swName(d.to), Switch: d.from, Link: li}
			if err := price(e, trunkFlows[d], tree.TrunkRate(li, cfg.LinkRate), cfg.TTechno); err != nil {
				return nil, err
			}
		}
	}
	for _, st := range stations {
		home := tree.StationSwitch[st]
		e := EdgeBacklog{Kind: EdgeDest, From: swName(home), To: st, Switch: home, Link: -1}
		if err := price(e, byDest[st], tree.StationRate(st, cfg.LinkRate), cfg.TTechno); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// referenceBacklogBound is the historical BacklogBound: the aggregate
// arrival curve summed flow by flow with netcalc's Add.
func referenceBacklogBound(specs []FlowSpec, cfg Config) (simtime.Size, error) {
	agg := netcalc.Zero()
	for _, f := range specs {
		agg = agg.Add(tokenBucketOf(f))
	}
	beta := netcalc.RateLatency(float64(cfg.LinkRate.BitsPerSecond()), cfg.TTechno.Seconds())
	v, err := netcalc.VerticalDeviation(agg, beta)
	if err != nil {
		return 0, ErrUnstable
	}
	return simtime.Size(math.Ceil(v)), nil
}
