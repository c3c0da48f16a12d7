package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/ethernet"
	"repro/internal/shaper"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// frameMeta travels with every frame copy (as a pooled pointer in
// Frame.Meta, so attaching it never allocates): the flow's dense index in
// workload order, the instance sequence number, the application-level copy
// index, and the release time. Babbling sources release several copies
// sharing one seq, so redundant-plane dedup must key on (seq, cp) —
// otherwise same-plane babble copies would be miscounted as cross-plane
// redundancy and babbling-idiot results would not be comparable across
// architectures. On a redundant network every plane copy carries its own
// record, so frame release never double-frees a shared one.
type frameMeta struct {
	flow    int
	seq     int
	cp      int
	release simtime.Time
}

// pendingSend is one frame copy waiting out its plane's phase skew.
type pendingSend struct {
	src int
	f   *ethernet.Frame
}

// NetworkSim is one network simulation, staged: NewNetworkSim builds the
// fabric and installs the workload, Advance runs virtual time forward, and
// Finish collects the SimResult. SimulateNetwork composes the three; the
// staged form exists so steady-state callers (benchmarks, the allocation
// gate, long-running services) can drive and observe the hot loop
// directly.
//
// All hot-loop state is dense: edges, ports, capacities and backlog marks
// are addressed by topology.EdgeID, flows by their workload index — string
// keys appear only at the JSON boundaries (setup resolves them once,
// Finish renders them once). Frames and their metadata live on
// generation-checked free lists, and every event handler on the per-frame
// path is pre-bound, so after warm-up an Advance allocates nothing.
type NetworkSim struct {
	set  *traffic.Set
	cfg  SimConfig
	topo *topology.Network
	sim  *des.Simulator
	res  *SimResult

	planes int
	kind   ethernet.QueueKind

	frames   ethernet.FramePool
	metaFree []*frameMeta

	names    []string // set.Stations(): workload stations, sorted
	tableIdx []int    // names index → topo.SortedStations index
	flows    []*FlowSim
	flowIdx  map[*traffic.Message]int
	srcIdx   []int // flow → names index of the source station
	dstAddr  []ethernet.Addr
	copiesOf []int // flow → copies per release (babbling)

	sws      [][]*ethernet.Switch  // [plane][switch]
	stations [][]*ethernet.Station // [plane][names index]
	shapers  []*shaper.Shaper      // by flow

	// skewPend is the per-plane FIFO of frame copies waiting out the
	// plane's fixed phase skew; skewFn[p] is the pre-bound release
	// handler (one closure per plane, at setup).
	skewPend [][]pendingSend
	skewHead []int
	skewFn   []des.Handler

	// seenAt implements the ARINC 664 integrity check densely: per flow,
	// slot seq·copies+cp holds the first copy's arrival time (0 = none
	// yet — a real arrival is always past the first serialization).
	// Presized from the horizon so steady-state dedup allocates nothing.
	seenAt [][]simtime.Time
	// skewWin is each flow's resolved acceptance window: the VL's own
	// skew_max override when set, the network-wide cfg.SkewMax otherwise
	// (0 = unbounded). Resolved once at setup so the receive path never
	// branches on configuration.
	skewWin []simtime.Duration

	stopTraffic func()
	pcapErr     error
	finished    bool
}

// SimulateNetwork is the one simulator behind every architecture: it builds
// the network described by topo — switches, full-duplex trunks, stations,
// optionally several independent redundant planes — wires the paper's
// shaping and multiplexing stack over it, and runs the workload. Star,
// cascade and tree are thin wrappers that construct a topology and
// delegate, so every SimConfig field (BER, Recorder, QueueCapacity,
// CollectLatencies, babbling sources, shaper accounting, PCAP) is honored
// on every architecture by construction.
//
// On a redundant network (topo.PlaneCount() > 1) every shaped frame is
// replicated onto each surviving plane, each plane honoring its own
// PlaneSpec: the copy is released after the plane's phase skew, every
// link serializes at the plane's scaled rate and adds the plane's
// propagation skew, and failed planes carry nothing. The receiver runs
// ARINC 664-style redundancy management per connection: the first copy
// of each (Seq, copy) instance is delivered; duplicates inside the
// cfg.SkewMax acceptance window are counted as SimResult.Redundant and
// duplicates outside it as SimResult.Discarded (with cfg.SkewMax == 0
// the window is unbounded — exactly the historical first-copy-wins
// receiver). Per-plane delivery accounting is in SimResult.PlaneDelivered.
func SimulateNetwork(set *traffic.Set, cfg SimConfig, topo *topology.Network) (*SimResult, error) {
	ns, err := NewNetworkSim(set, cfg, topo)
	if err != nil {
		return nil, err
	}
	ns.Advance(cfg.Horizon)
	return ns.Finish()
}

// NewNetworkSim validates the inputs and builds the simulation: fabric,
// stations, static routing, shapers and traffic sources, all primed at
// virtual time zero. Nothing has run yet — call Advance.
func NewNetworkSim(set *traffic.Set, cfg SimConfig, topo *topology.Network) (*NetworkSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if err := topo.Validate(set.Stations()); err != nil {
		return nil, err
	}
	nextHop, err := topo.NextHops()
	if err != nil {
		return nil, err
	}

	ns := &NetworkSim{
		set:    set,
		cfg:    cfg,
		topo:   topo,
		sim:    des.New(cfg.Seed),
		planes: topo.PlaneCount(),
		kind:   ethernet.QueueFCFS,
	}
	if cfg.Approach == analysis.Priority {
		ns.kind = ethernet.QueuePriority
	}
	sim, planes, kind := ns.sim, ns.planes, ns.kind

	// Workload stations in sorted name order, with their index in the
	// topology's interned-station order (a superset: a topology may place
	// stations the workload never uses).
	ns.names = set.Stations()
	ns.tableIdx = make([]int, len(ns.names))
	for i, name := range ns.names {
		ti, ok := topo.StationIndex(name)
		if !ok {
			return nil, fmt.Errorf("core: station %q not placed on network %q", name, topo.Name)
		}
		ns.tableIdx[i] = ti
	}

	// Per-port queue capacities, resolved once per (plane, edge) at the
	// string boundary: the most specific key of cfg.QueueCapacities wins
	// (plane-qualified, then bare, then the global QueueCapacity), and a
	// present key overrides the default even at 0 (explicitly unbounded).
	capacityOf := func(p int, e topology.EdgeID) simtime.Size {
		key := topo.EdgeKey(e)
		if planes > 1 {
			if c, ok := cfg.QueueCapacities[topology.PlaneKeyPrefix(p, planes)+key]; ok {
				return c
			}
		}
		if c, ok := cfg.QueueCapacities[key]; ok {
			return c
		}
		return cfg.QueueCapacity
	}

	// Switches, plane-major. Single-plane networks keep the historical
	// "sw%d" names so traces and port labels are unchanged. Switch port
	// ids ARE the interned edge ids of the edges the ports transmit on
	// (globally unique, so also unique per switch).
	ns.sws = make([][]*ethernet.Switch, planes)
	for p := 0; p < planes; p++ {
		ns.sws[p] = make([]*ethernet.Switch, topo.Switches)
		for s := 0; s < topo.Switches; s++ {
			name := fmt.Sprintf("sw%d", s)
			if planes > 1 {
				name = fmt.Sprintf("n%d.sw%d", p, s)
			}
			var perPort map[int]simtime.Size
			if cfg.QueueCapacities != nil {
				// Resolve the switch's output-port capacities up front,
				// port id = transmitting edge id.
				perPort = map[int]simtime.Size{}
				for i, st := range ns.names {
					if topo.StationSwitch[st] == s {
						e := topo.DestEdge(ns.tableIdx[i])
						perPort[int(e)] = capacityOf(p, e)
					}
				}
				for li, l := range topo.Links {
					if l[0] == s {
						e := topo.TrunkEdge(li, false)
						perPort[int(e)] = capacityOf(p, e)
					}
					if l[1] == s {
						e := topo.TrunkEdge(li, true)
						perPort[int(e)] = capacityOf(p, e)
					}
				}
			}
			ns.sws[p][s] = ethernet.NewSwitch(sim, ethernet.SwitchConfig{
				Name:            name,
				RelayLatency:    cfg.TTechno,
				Kind:            kind,
				QueueCapacity:   cfg.QueueCapacity,
				QueueCapacities: perPort,
			})
		}
	}

	// Trunks: one egress port per direction per link per plane, each
	// cross-delivering into the adjacent switch's ingress, port id = the
	// direction's edge id, identical on every plane. Each trunk serializes
	// at its own rate and adds its own propagation delay — per-link
	// overrides from the scenario's network section, defaulting to the
	// uniform SimConfig.LinkRate.
	trunkPortOf := make([][]int, topo.Switches) // [switch][neighbor] → port id
	for i := range trunkPortOf {
		trunkPortOf[i] = make([]int, topo.Switches)
		for j := range trunkPortOf[i] {
			trunkPortOf[i][j] = -1
		}
	}
	for li, l := range topo.Links {
		a, b := l[0], l[1]
		pa, pb := int(topo.TrunkEdge(li, false)), int(topo.TrunkEdge(li, true))
		trunkPortOf[a][b] = pa
		trunkPortOf[b][a] = pb
		for p := 0; p < planes; p++ {
			rate, prop := topo.PlaneTrunkRate(p, li, cfg.LinkRate), topo.PlaneTrunkProp(p, li)
			var inA, inB func(*ethernet.Frame)
			inA = ns.sws[p][a].AttachPort(pa, rate, prop, func(f *ethernet.Frame) { inB(f) })
			inB = ns.sws[p][b].AttachPort(pb, rate, prop, func(f *ethernet.Frame) { inA(f) })
		}
	}

	res := &SimResult{Cfg: cfg, Flows: map[string]*FlowSim{}}
	ns.res = res
	ns.flows = make([]*FlowSim, len(set.Messages))
	ns.flowIdx = make(map[*traffic.Message]int, len(set.Messages))
	ns.srcIdx = make([]int, len(set.Messages))
	ns.dstAddr = make([]ethernet.Addr, len(set.Messages))
	ns.copiesOf = make([]int, len(set.Messages))
	nameIdx := make(map[string]int, len(ns.names))
	for i, name := range ns.names {
		nameIdx[name] = i
	}
	for i, m := range set.Messages {
		fs := &FlowSim{Msg: m}
		if cfg.CollectLatencies {
			fs.Latencies = &stats.Histogram{}
			fs.Latencies.Reserve(ns.expectedInstances(m))
		}
		res.Flows[m.Name] = fs
		ns.flows[i] = fs
		ns.flowIdx[m] = i
		ns.srcIdx[i] = nameIdx[m.Source]
		ns.copiesOf[i] = 1
		if m.Name == cfg.Babbler && cfg.BabbleFactor > 1 {
			ns.copiesOf[i] = cfg.BabbleFactor
		}
	}
	// Redundancy-management bookkeeping: per connection (per VL), the
	// arrival time of the first copy of every instance — the anchor of
	// the integrity-checking acceptance window.
	if planes > 1 {
		res.PlaneDelivered = make([]int, planes)
		ns.seenAt = make([][]simtime.Time, len(set.Messages))
		ns.skewWin = make([]simtime.Duration, len(set.Messages))
		for i, m := range set.Messages {
			ns.seenAt[i] = make([]simtime.Time, ns.expectedInstances(m)*ns.copiesOf[i])
			ns.skewWin[i] = cfg.SkewMax
			if m.SkewMax > 0 {
				// ARINC 664 configures the window per VL; a message-level
				// override wins over the network-wide default.
				ns.skewWin[i] = m.SkewMax
			}
		}
	}

	// Stations (ordered as ns.names). On redundant networks each station
	// has one end system per plane, sharing the MAC address (the planes
	// are physically independent). MACs number stations in workload
	// order; the switch port id toward a station is its dest edge id.
	ns.stations = make([][]*ethernet.Station, planes)
	for p := range ns.stations {
		ns.stations[p] = make([]*ethernet.Station, len(ns.names))
	}
	addrs := make([]ethernet.Addr, len(ns.names))
	for i, name := range ns.names {
		home := topo.StationSwitch[name]
		addr := ethernet.StationAddr(i)
		destEdge := topo.DestEdge(ns.tableIdx[i])
		for p := 0; p < planes; p++ {
			stRate, stProp := topo.PlaneStationRate(p, name, cfg.LinkRate), topo.PlaneStationProp(p, name)
			upCap := capacityOf(p, topo.UplinkEdge(ns.tableIdx[i]))
			st := ethernet.NewStation(sim, name, addr, ns.sws[p][home], int(destEdge), stRate, stProp, kind, upCap)
			st.OnReceive = ns.makeReceive(p, name)
			if cfg.BER > 0 {
				st.Uplink().SetBitErrorRate(cfg.BER, sim.RNG())
			}
			ns.stations[p][i] = st
		}
		addrs[i] = addr
	}
	for i := range set.Messages {
		ns.dstAddr[i] = addrs[nameIdx[set.Messages[i].Dest]]
	}
	// Static routing: on every switch, every remote station's address maps
	// to the trunk port toward its home switch (precomputed next hop).
	for i, name := range ns.names {
		home := topo.StationSwitch[name]
		for s := 0; s < topo.Switches; s++ {
			if s == home {
				continue // NewStation already learned the local port
			}
			port := trunkPortOf[s][nextHop[s][home]]
			for p := 0; p < planes; p++ {
				ns.sws[p][s].Learn(addrs[i], port)
			}
		}
	}
	if cfg.BER > 0 {
		for p := 0; p < planes; p++ {
			for _, sw := range ns.sws[p] {
				for _, id := range sw.PortIDs() {
					sw.OutputPort(id).SetBitErrorRate(cfg.BER, sim.RNG())
				}
			}
		}
	}
	// Every port returns its destroyed frames (queue-full drops,
	// corruption discards) to the pool through one shared handler.
	discard := ns.releaseFrame
	for p := 0; p < planes; p++ {
		for _, sw := range ns.sws[p] {
			for _, id := range sw.PortIDs() {
				sw.OutputPort(id).OnDiscard = discard
			}
		}
		for _, st := range ns.stations[p] {
			st.Uplink().OnDiscard = discard
		}
	}

	// Per-plane skew release rings (only planes with a positive phase
	// skew ever use theirs).
	ns.skewPend = make([][]pendingSend, planes)
	ns.skewHead = make([]int, planes)
	ns.skewFn = make([]des.Handler, planes)
	for p := 0; p < planes; p++ {
		p := p
		ns.skewFn[p] = func() { ns.skewPop(p) }
	}

	// Per-connection shapers, releasing into the source station's uplink.
	specs := analysis.Specs(set, cfg.AnalysisConfig())
	ns.shapers = make([]*shaper.Shaper, len(set.Messages))
	for _, spec := range specs {
		m := spec.Msg
		idx := ns.flowIdx[m]
		src := ns.srcIdx[idx]
		sh := shaper.New(m.Name, sim, spec.B, spec.R, func(f *ethernet.Frame) {
			ns.send(src, f)
		})
		if cfg.Recorder != nil {
			sh.OnShaped = func(f *ethernet.Frame) {
				if meta, ok := f.Meta.(*frameMeta); ok {
					ns.record(trace.Event{At: sim.Now(), Kind: trace.Shaped, Conn: m.Name, Seq: meta.seq, Where: m.Source})
				}
			}
		}
		ns.shapers[idx] = sh
	}

	// Traffic sources feed the shapers (or, bypassed, the multiplexers).
	ns.stopTraffic = traffic.Start(sim, set, traffic.SourceConfig{Mode: cfg.Mode, MeanSlack: cfg.MeanSlack, AlignPhases: cfg.AlignPhases},
		ns.onRelease)
	return ns, nil
}

// expectedInstances estimates how many instances of m the configured
// horizon releases — the presizing hint for the dedup table and latency
// samples (going past it is only an amortized allocation, never an error).
func (ns *NetworkSim) expectedInstances(m *traffic.Message) int {
	return int(ns.cfg.Horizon/m.Period) + 2
}

// record forwards a trace event to the configured recorder, if any.
func (ns *NetworkSim) record(ev trace.Event) {
	if ns.cfg.Recorder != nil {
		//rtlint:coldpath tracing is an opt-in debugging mode, not the measured steady state
		ns.cfg.Recorder.Record(ev)
	}
}

// getMeta takes a metadata record off the free list.
//
//rtlint:hotpath
func (ns *NetworkSim) getMeta(flow, seq, cp int, release simtime.Time) *frameMeta {
	var m *frameMeta
	if n := len(ns.metaFree); n > 0 {
		m = ns.metaFree[n-1]
		ns.metaFree[n-1] = nil
		ns.metaFree = ns.metaFree[:n-1]
	} else {
		//rtlint:coldpath pool miss: the metadata table grows only to the in-flight high-water mark
		m = &frameMeta{}
	}
	*m = frameMeta{flow: flow, seq: seq, cp: cp, release: release}
	return m
}

// releaseFrame returns a frame and its metadata record to their pools —
// the single end-of-life sink, installed as every port's OnDiscard and
// called at delivery and redundancy-management rejection.
//
//rtlint:hotpath
//rtlint:consumes
func (ns *NetworkSim) releaseFrame(f *ethernet.Frame) {
	if m, ok := f.Meta.(*frameMeta); ok {
		f.Meta = nil
		//rtlint:presized free list capacity tracks the metadata table; growth is amortized past the high-water mark
		ns.metaFree = append(ns.metaFree, m)
	}
	ns.frames.Put(f)
}

// onRelease is the traffic-source callback: one released instance becomes
// one pooled frame per application copy, shaped (or bypassed) into the
// network.
//
//rtlint:hotpath
func (ns *NetworkSim) onRelease(in traffic.Instance) {
	flow := in.Index // position in set.Messages — matches ns.flows order
	ns.flows[flow].Released++
	ns.record(trace.Event{At: ns.sim.Now(), Kind: trace.Released, Conn: in.Msg.Name, Seq: in.Seq, Where: in.Msg.Source})
	copies := ns.copiesOf[flow]
	for c := 0; c < copies; c++ {
		f := ns.frames.Get()
		f.Dst = ns.dstAddr[flow]
		f.Tagged = true
		f.Priority = ethernet.PCPOfClass(int(in.Msg.Priority))
		f.Type = ethernet.EtherTypeAvionics
		f.PayloadLen = in.Msg.Payload.ByteCount()
		f.Meta = ns.getMeta(flow, in.Seq, c, in.Release)
		if ns.cfg.BypassShapers {
			ns.send(ns.srcIdx[flow], f)
			continue
		}
		ns.shapers[flow].Submit(f)
	}
}

// send pushes one application frame into the network: directly on a
// single-plane network, replicated per surviving plane on a redundant
// one (each plane serializes its own copy with its own metadata record,
// so the copies share no state). A plane with a phase skew receives its
// copy that much later through the plane's pending ring; a zero-skew
// plane is fed synchronously, not through a zero-delay event, so the
// identical-planes event order — and with it the golden dual fixture —
// is preserved exactly.
//
//rtlint:hotpath
//rtlint:consumes
func (ns *NetworkSim) send(src int, f *ethernet.Frame) {
	if ns.planes == 1 {
		ns.sendOn(0, src, f)
		return
	}
	meta := f.Meta.(*frameMeta)
	for p := 0; p < ns.planes; p++ {
		if ns.topo.PlaneFailed(p) {
			continue // a failed plane carries no traffic
		}
		g := ns.frames.Clone(f)
		g.Meta = ns.getMeta(meta.flow, meta.seq, meta.cp, meta.release)
		if skew := ns.topo.PlanePhaseSkew(p); skew > 0 {
			//rtlint:presized skew ring reaches its steady-state capacity after the first burst; skewPop compacts in place
			ns.skewPend[p] = append(ns.skewPend[p], pendingSend{src: src, f: g})
			ns.sim.After(skew, ns.skewFn[p])
		} else {
			ns.sendOn(p, src, g)
		}
	}
	ns.releaseFrame(f) // replaced by the per-plane copies
}

// skewPop releases the oldest pending copy of plane p (every copy waits
// exactly the plane's skew, so completions are FIFO).
//
//rtlint:hotpath
func (ns *NetworkSim) skewPop(p int) {
	pend := ns.skewPend[p]
	e := pend[ns.skewHead[p]]
	pend[ns.skewHead[p]] = pendingSend{}
	ns.skewHead[p]++
	if h := ns.skewHead[p]; h > 8 && h*2 >= len(pend) {
		n := copy(pend, pend[h:])
		ns.skewPend[p] = pend[:n]
		ns.skewHead[p] = 0
	}
	ns.sendOn(p, e.src, e.f)
}

// sendOn submits one frame copy to plane p's source station, accounting a
// drop if the uplink multiplexer rejects it. The trace fields are staged
// before Send because a rejected frame is released (OnDiscard) inside it.
//
//rtlint:hotpath
//rtlint:consumes
func (ns *NetworkSim) sendOn(p, src int, f *ethernet.Frame) {
	meta := f.Meta.(*frameMeta)
	flow, seq := meta.flow, meta.seq
	if !ns.stations[p][src].Send(f) {
		ns.res.Dropped++
		ns.record(trace.Event{At: ns.sim.Now(), Kind: trace.Dropped, Conn: ns.set.Messages[flow].Name, Seq: seq, Where: ns.names[src]})
	}
}

// makeReceive builds the reception handler of one station on one plane:
// redundancy management, latency accounting, tracing, and frame release.
// One closure per (plane, station) at setup; the per-frame path inside
// allocates nothing.
func (ns *NetworkSim) makeReceive(p int, name string) func(*ethernet.Frame) {
	sim, res := ns.sim, ns.res
	//rtlint:hotpath
	return func(f *ethernet.Frame) {
		meta, ok := f.Meta.(*frameMeta)
		if !ok {
			return
		}
		flow, seq := meta.flow, meta.seq
		fs := ns.flows[flow]
		msg := ns.set.Messages[flow]
		if ns.planes > 1 {
			res.PlaneDelivered[p]++
			slot := seq*ns.copiesOf[flow] + meta.cp
			seen := ns.seenAt[flow]
			for len(seen) <= slot {
				//rtlint:presized dedup slots presized from the horizon; growth past the estimate is amortized
				seen = append(seen, 0)
			}
			ns.seenAt[flow] = seen
			if first := seen[slot]; first != 0 {
				// A copy of this instance already arrived on another
				// plane. Within the acceptance window it is healthy
				// redundancy; outside it the integrity check rejects it
				// as a stale copy.
				if win := ns.skewWin[flow]; win > 0 && sim.Now().Sub(first) > win {
					res.Discarded++
				} else {
					res.Redundant++
				}
				ns.releaseFrame(f)
				return
			}
			seen[slot] = sim.Now()
		}
		lat := sim.Now().Sub(meta.release)
		fs.Latency.Add(lat)
		if fs.Latencies != nil {
			fs.Latencies.Add(lat)
		}
		fs.Delivered++
		if lat > msg.Deadline {
			fs.DeadlineMisses++
		}
		if lat > res.ClassWorst[msg.Priority] {
			res.ClassWorst[msg.Priority] = lat
		}
		ns.record(trace.Event{At: sim.Now(), Kind: trace.Delivered, Conn: msg.Name, Seq: seq, Where: name})
		//rtlint:coldpath packet capture is a debugging mode, not the measured steady state
		if ns.cfg.PCAP != nil && ns.pcapErr == nil {
			if wire, err := f.Marshal(); err == nil {
				ns.pcapErr = ns.cfg.PCAP.WritePacket(sim.Now(), wire)
			} else {
				ns.pcapErr = err
			}
		}
		ns.releaseFrame(f)
	}
}

// Now returns the simulation's current virtual time.
func (ns *NetworkSim) Now() simtime.Time { return ns.sim.Now() }

// Advance runs the simulation d further into virtual time. It may be
// called repeatedly; after warm-up the per-frame path allocates nothing.
//
//rtlint:hotpath
func (ns *NetworkSim) Advance(d simtime.Duration) {
	ns.sim.RunFor(d)
}

// Finish stops the traffic sources and collects the result: switch-side
// drop and corruption counters, every queue's observed high-water mark
// under its plane-qualified directed-edge key (rendered here, once), and
// the shaper accounting. Finish must be called exactly once.
func (ns *NetworkSim) Finish() (*SimResult, error) {
	if ns.finished {
		panic("core: NetworkSim.Finish called twice")
	}
	ns.finished = true
	ns.stopTraffic()
	topo, planes, res := ns.topo, ns.planes, ns.res
	// Count switch-side drops and corruption too — on every switch of
	// every plane, trunk ports included.
	for p := 0; p < planes; p++ {
		for _, sw := range ns.sws[p] {
			for _, id := range sw.PortIDs() {
				res.Dropped += sw.OutputPort(id).Queue().Drops().Frames
				res.Corrupted += sw.OutputPort(id).Corrupted
			}
		}
		for _, st := range ns.stations[p] {
			res.Corrupted += st.Uplink().Corrupted
		}
	}
	// Export every queue's observed high-water mark under its directed-edge
	// key — the numbers the backlog bounds (analysis.EdgeBacklogs) are
	// validated against.
	queues := planes * (2*len(ns.names) + 2*len(topo.Links))
	res.PortMaxBacklog = make(map[string]simtime.Size, queues)
	if ns.kind == ethernet.QueuePriority {
		res.PortClassMaxBacklog = make(map[string][]simtime.Size, queues)
	}
	observe := func(key string, q ethernet.Queue) {
		res.PortMaxBacklog[key] = q.MaxBacklog()
		if res.PortClassMaxBacklog == nil {
			return
		}
		if cm, ok := q.(interface{ ClassMaxBacklog(int) simtime.Size }); ok {
			marks := make([]simtime.Size, ethernet.NumClasses)
			for c := range marks {
				marks[c] = cm.ClassMaxBacklog(c)
			}
			res.PortClassMaxBacklog[key] = marks
		}
	}
	for p := 0; p < planes; p++ {
		pre := topology.PlaneKeyPrefix(p, planes)
		for i, name := range ns.names {
			home := topo.StationSwitch[name]
			destEdge := topo.DestEdge(ns.tableIdx[i])
			observe(pre+topo.EdgeKey(topo.UplinkEdge(ns.tableIdx[i])), ns.stations[p][i].Uplink().Queue())
			observe(pre+topo.EdgeKey(destEdge), ns.sws[p][home].OutputPort(int(destEdge)).Queue())
		}
		for li, l := range topo.Links {
			fwd, rev := topo.TrunkEdge(li, false), topo.TrunkEdge(li, true)
			observe(pre+topo.EdgeKey(fwd), ns.sws[p][l[0]].OutputPort(int(fwd)).Queue())
			observe(pre+topo.EdgeKey(rev), ns.sws[p][l[1]].OutputPort(int(rev)).Queue())
		}
	}
	for _, sh := range ns.shapers {
		res.Shaped += sh.Shaped
	}
	res.Events = ns.sim.Executed()
	if ns.pcapErr != nil {
		return nil, fmt.Errorf("core: pcap: %w", ns.pcapErr)
	}
	return res, nil
}
