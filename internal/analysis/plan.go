package analysis

import (
	"errors"
	"fmt"

	"repro/internal/netcalc"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file splits the whole-network analyses (TreeEndToEnd and
// EdgeBacklogs) into a structural half, compiled once, and a numeric half,
// evaluated per call. The structure of an analysis is the tree shape and
// each flow's (source, destination) placement: it alone decides the
// routes, the trunk processing order and which flows share each
// multiplexer. A grid sweeps rates and loads over a handful of such
// structures, so a Plan compiled for one structure serves every cell that
// shares it.
//
// Plan evaluation reads only numbers: each flow's (bᵢ, rᵢ, priority,
// deadline), the configuration, and the tree's per-link rate and
// propagation overrides. It sums each multiplexer group into per-class
// integer totals (classSums) and applies the same closed forms, in the
// same order, as the per-flow formulation the oracle in reference.go
// keeps — so results are byte-identical to it, which the plan self-test
// (SelfTest) and the scenariogen sweep assert.

// Plan is the compiled structure of one (workload, tree) pair: dense
// station and directed-edge indices, every flow's path, the trunk
// topological order and the member lists of every multiplexer group, each
// in flow order. A Plan is immutable once compiled and safe to share
// across goroutines.
type Plan struct {
	// The structure the plan was compiled for: switch count, links, and
	// each flow's endpoints as indices into stations, whose home switches
	// are home.
	switches         int
	links            [][2]int
	stations         []string // distinct endpoints, sorted (= Set.Stations)
	home             []int
	flowSrc, flowDst []int32

	swNames []string // report name of each switch ("sw<id>")

	// srcMembers[k] and dstMembers[k] list the flows station k sends and
	// receives; dirMembers[e] the flows crossing directed trunk edge e
	// (e = 2·link for Links[link][0]→[1], 2·link+1 for the reverse).
	srcMembers, dstMembers, dirMembers [][]int32
	// order holds the directed trunk edges some flow crosses, in trunk
	// topological order (see trunkTopoOrder).
	order []int32
	// flowLinks[i] lists the link index of every trunk on flow i's path.
	flowLinks [][]int32
	// maxTrunk is the largest trunk group; members is the total size of
	// all the edge groups EdgeBacklogs prices.
	maxTrunk, members int
}

// dirEnds returns the (from, to) switches of directed trunk edge e.
func (p *Plan) dirEnds(e int32) (from, to int) {
	l := p.links[e/2]
	if e%2 == 0 {
		return l[0], l[1]
	}
	return l[1], l[0]
}

// groups returns the number of multiplexer groups the plan evaluates per
// end-to-end analysis: every non-empty source and destination group plus
// every crossed trunk.
func (p *Plan) groups() int {
	n := len(p.order)
	for k := range p.stations {
		if len(p.srcMembers[k]) > 0 {
			n++
		}
		if len(p.dstMembers[k]) > 0 {
			n++
		}
	}
	return n
}

// edges returns the number of directed edges EdgeBacklogs prices.
func (p *Plan) edges() int { return 2*len(p.stations) + len(p.dirMembers) }

// compilePlan derives the plan of the set's flows over the tree. The tree
// must already be validated against stations, which must be
// set.Stations().
func compilePlan(set *traffic.Set, tree *Tree, stations []string) (*Plan, error) {
	n := len(set.Messages)
	p := &Plan{
		switches:   tree.Switches,
		links:      append([][2]int(nil), tree.Links...),
		stations:   stations,
		home:       make([]int, len(stations)),
		flowSrc:    make([]int32, n),
		flowDst:    make([]int32, n),
		swNames:    make([]string, tree.Switches),
		srcMembers: make([][]int32, len(stations)),
		dstMembers: make([][]int32, len(stations)),
		dirMembers: make([][]int32, 2*len(tree.Links)),
		flowLinks:  make([][]int32, n),
	}
	index := make(map[string]int32, len(stations))
	for k, s := range stations {
		index[s] = int32(k)
		p.home[k] = tree.StationSwitch[s]
	}
	for id := range p.swNames {
		p.swNames[id] = swName(id)
	}
	dir := make(map[dirEdge]int32, 2*len(tree.Links))
	for li, l := range tree.Links {
		dir[dirEdge{l[0], l[1]}] = int32(2 * li)
		dir[dirEdge{l[1], l[0]}] = int32(2*li + 1)
	}

	paths := make([][]dirEdge, n)
	for i, m := range set.Messages {
		src, dst := index[m.Source], index[m.Dest]
		p.flowSrc[i], p.flowDst[i] = src, dst
		p.srcMembers[src] = append(p.srcMembers[src], int32(i))
		p.dstMembers[dst] = append(p.dstMembers[dst], int32(i))
		sp, err := tree.SwitchPath(m.Source, m.Dest)
		if err != nil {
			return nil, err
		}
		for h := 0; h+1 < len(sp); h++ {
			e := dirEdge{sp[h], sp[h+1]}
			de, ok := dir[e]
			if !ok {
				return nil, fmt.Errorf("analysis: no link for trunk %d→%d", e.from, e.to)
			}
			paths[i] = append(paths[i], e)
			p.dirMembers[de] = append(p.dirMembers[de], int32(i))
			p.flowLinks[i] = append(p.flowLinks[i], de/2)
		}
	}
	order, err := trunkTopoOrder(paths)
	if err != nil {
		return nil, err
	}
	p.order = make([]int32, len(order))
	for k, e := range order {
		p.order[k] = dir[e]
	}
	p.members = 2 * n
	for _, m := range p.dirMembers {
		p.maxTrunk = max(p.maxTrunk, len(m))
		p.members += len(m)
	}
	return p, nil
}

// matches reports whether the plan was compiled for the structure of
// (set, tree): the same switches and links, and the same endpoints in the
// same flow order, each placed on the same switch.
func (p *Plan) matches(set *traffic.Set, tree *Tree) bool {
	if tree.Switches != p.switches || len(tree.Links) != len(p.links) || len(set.Messages) != len(p.flowSrc) {
		return false
	}
	for i, l := range tree.Links {
		if l != p.links[i] {
			return false
		}
	}
	for k, s := range p.stations {
		if sw, ok := tree.StationSwitch[s]; !ok || sw != p.home[k] {
			return false
		}
	}
	for i, m := range set.Messages {
		if m.Source != p.stations[p.flowSrc[i]] || m.Dest != p.stations[p.flowDst[i]] {
			return false
		}
	}
	return true
}

// flowState is one flow's running state through the end-to-end stages.
type flowState struct {
	b      simtime.Size     // burst after the last processed stage
	source simtime.Duration // source multiplexer bound
	trunk  simtime.Duration // sum of the trunk multiplexer bounds
	fixed  simtime.Duration // sum of the propagation delays
}

// endToEnd bounds every connection of set over tree — the numeric half
// of TreeEndToEnd. Inputs are validated by the caller and must match the
// plan's structure.
func (p *Plan) endToEnd(set *traffic.Set, approach Approach, cfg Config, tree *Tree) (*Result, error) {
	specs := Specs(set, cfg)
	rates := make([]simtime.Rate, len(p.stations)+len(tree.Links))
	stRate, linkRate := rates[:len(p.stations)], rates[len(p.stations):]
	props := make([]simtime.Duration, len(p.stations))
	for k, s := range p.stations {
		stRate[k] = tree.StationRate(s, cfg.LinkRate)
		props[k] = tree.StationProp(s)
	}
	for li := range linkRate {
		linkRate[li] = tree.TrunkRate(li, cfg.LinkRate)
	}
	// One table per station, holding its source group's bounds in stage 1
	// and its destination group's in stage 3.
	tables := make([]muxTable, len(p.stations))
	st := make([]flowState, len(specs))
	for i, f := range specs {
		st[i].b = f.B
	}
	delays := make([]simtime.Duration, p.maxTrunk)
	// sums totals a group at its members' current bursts.
	sums := func(members []int32) classSums {
		var s classSums
		for _, i := range members {
			s.add(st[i].b, specs[i].R, specs[i].Msg.Priority)
		}
		return s
	}

	// Stage 1: source uplinks, each at the station's access-link rate with
	// no relaying latency. Propagation delays are constant shifts: they
	// accumulate into fixed (added to bound and floor alike) without
	// inflating any arrival curve.
	for k, members := range p.srcMembers {
		if len(members) == 0 {
			continue
		}
		s := sums(members)
		srcCfg := cfg
		srcCfg.TTechno = 0
		srcCfg.LinkRate = stRate[k]
		tables[k] = s.table(approach, srcCfg)
	}
	for i, f := range specs {
		k := p.flowSrc[i]
		pr := f.Msg.Priority
		if err := tables[k].err[pr]; err != nil {
			return nil, fmt.Errorf("station %s: %w", p.stations[k], err)
		}
		d := tables[k].d[pr]
		st[i] = flowState{b: inflateBurst(st[i].b, f.R, d), source: d, fixed: props[k]}
	}

	// Stage 2: trunk multiplexers in dependency order, each at its trunk's
	// capacity. Every bound at an edge is taken before any member is
	// inflated, so each flow sees its peers' entering curves.
	for _, e := range p.order {
		li := e / 2
		edgeCfg := cfg
		edgeCfg.LinkRate = linkRate[li]
		members := p.dirMembers[e]
		s := sums(members)
		t := s.table(approach, edgeCfg)
		prop := tree.TrunkProp(int(li))
		for k, i := range members {
			pr := specs[i].Msg.Priority
			if err := t.err[pr]; err != nil {
				from, to := p.dirEnds(e)
				return nil, fmt.Errorf("trunk %d→%d: %w", from, to, err)
			}
			delays[k] = t.d[pr]
			st[i].trunk += t.d[pr]
			st[i].fixed += prop
		}
		for k, i := range members {
			st[i].b = inflateBurst(st[i].b, specs[i].R, delays[k])
		}
	}

	// Stage 3: destination ports, serializing onto the destination
	// station's access link.
	for k, members := range p.dstMembers {
		if len(members) == 0 {
			continue
		}
		s := sums(members)
		destCfg := cfg
		destCfg.LinkRate = stRate[k]
		tables[k] = s.table(approach, destCfg)
	}
	res := &Result{Approach: approach, Cfg: cfg}
	if len(specs) > 0 {
		res.Flows = make([]PathBound, 0, len(specs))
	}
	for i, f := range specs {
		k := p.flowDst[i]
		pr := f.Msg.Priority
		if err := tables[k].err[pr]; err != nil {
			return nil, fmt.Errorf("port %s: %w", p.stations[k], err)
		}
		d := tables[k].d[pr]
		fs := &st[i]
		fs.fixed += props[k]
		hops := len(p.flowLinks[i]) + 2 // uplink + trunks + dest port
		// The floor crosses each hop's own serialization rate.
		floor := simtime.TransmissionTime(f.B, stRate[p.flowSrc[i]]) +
			simtime.TransmissionTime(f.B, stRate[k]) +
			simtime.Duration(hops-1)*cfg.TTechno + fs.fixed
		for _, li := range p.flowLinks[i] {
			floor += simtime.TransmissionTime(f.B, linkRate[li])
		}
		pb := PathBound{
			Spec:        f,
			SourceDelay: fs.source,
			PortDelay:   fs.trunk + d,
			EndToEnd:    fs.source + fs.trunk + d + fs.fixed,
			Floor:       floor,
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// betaCurve is one rate-latency service curve with its parameters.
type betaCurve struct {
	rate  simtime.Rate
	t     simtime.Duration
	curve netcalc.Curve
}

// serviceCurves builds each distinct rate-latency service curve of one
// evaluation once; an evaluation sees only a few distinct (rate, latency)
// pairs, so a scan beats a map.
type serviceCurves []betaCurve

func (c *serviceCurves) get(rate simtime.Rate, t simtime.Duration) netcalc.Curve {
	for _, b := range *c {
		if b.rate == rate && b.t == t {
			return b.curve
		}
	}
	b := betaCurve{rate, t, serviceCurve(Config{LinkRate: rate, TTechno: t})}
	*c = append(*c, b)
	return b.curve
}

// backlogs prices every directed edge of tree for set — the numeric half
// of EdgeBacklogs. Inputs are validated by the caller and must match the
// plan's structure.
func (p *Plan) backlogs(set *traffic.Set, cfg Config, tree *Tree) (*EdgeBacklogResult, error) {
	specs := Specs(set, cfg)
	res := &EdgeBacklogResult{Cfg: cfg}
	if n := p.edges(); n > 0 {
		res.Edges = make([]EdgeBacklog, 0, n)
	}
	names := make([]string, 0, p.members) // every edge's Flows, back to back
	var betas serviceCurves
	price := func(e EdgeBacklog, members []int32, rate simtime.Rate, ttechno simtime.Duration) error {
		var sumB simtime.Size
		var sumR simtime.Rate
		start := len(names)
		for _, i := range members {
			sumB += specs[i].B
			sumR += specs[i].R
			names = append(names, specs[i].Msg.Name)
		}
		if len(members) > 0 {
			e.Flows = names[start:len(names):len(names)]
		}
		b, err := backlogBound(sumB, sumR, betas.get(rate, ttechno))
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

	// Station uplinks: the queue is fed directly by the shapers, no relay
	// in front of it, so the service has zero latency (matching the source
	// stage of the delay composition).
	for k, s := range p.stations {
		home := p.home[k]
		e := EdgeBacklog{Kind: EdgeUplink, From: s, To: p.swNames[home], Switch: home, Link: -1}
		if err := price(e, p.srcMembers[k], tree.StationRate(s, cfg.LinkRate), 0); err != nil {
			return nil, err
		}
	}
	// Trunks, both directions per link, in link order.
	for e := range p.dirMembers {
		li := e / 2
		from, to := p.dirEnds(int32(e))
		be := EdgeBacklog{Kind: EdgeTrunk, From: p.swNames[from], To: p.swNames[to], Switch: from, Link: li}
		if err := price(be, p.dirMembers[e], tree.TrunkRate(li, cfg.LinkRate), cfg.TTechno); err != nil {
			return nil, err
		}
	}
	// Destination ports — the historical PortBacklogs pricing, per
	// station, at the station's own access-link rate.
	for k, s := range p.stations {
		home := p.home[k]
		e := EdgeBacklog{Kind: EdgeDest, From: p.swNames[home], To: s, Switch: home, Link: -1}
		if err := price(e, p.dstMembers[k], tree.StationRate(s, cfg.LinkRate), cfg.TTechno); err != nil {
			return nil, err
		}
	}
	return res, nil
}
