package analysis

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file prices the buffer of EVERY multiplexing point of a switched
// network — the per-switch memory budget the paper's dimensioning story
// needs. A directed edge of the architecture owns exactly one queue:
//
//	station → switch   the station's uplink multiplexer
//	switch  → switch   a trunk output port (each direction separately)
//	switch  → station  the destination output port
//
// Each queue's backlog is bounded by the vertical deviation of the
// aggregate arrival curve of the flows the tree routing sends through it
// against the edge's own rate-latency service (its link rate, with the
// relaying latency t_techno in front of switch-resident queues and zero
// latency in front of a station's uplink, which no relay precedes).
//
// The arrival curves are the flows' source token buckets (bᵢ, rᵢ) — the
// same single-hop pricing convention as the historical PortBacklogs, which
// the destination edges therefore reproduce to the byte. For token-bucket
// aggregates the vertical deviation against β_{C,T} is Σbᵢ + (Σrᵢ)·T
// whenever the edge is stable (Σrᵢ ≤ C), so the bound is independent of
// the link rate itself; per-edge rate overrides and per-plane rate scales
// still matter, because they decide stability — an over-subscribed edge
// has no finite backlog bound and is reported Unstable instead of
// silently priced.

// EdgeKind classifies a directed edge by the queue it owns.
type EdgeKind int

const (
	// EdgeUplink is a station→switch edge: the source multiplexer queue
	// in the station.
	EdgeUplink EdgeKind = iota
	// EdgeTrunk is a switch→switch edge: a trunk output port.
	EdgeTrunk
	// EdgeDest is a switch→station edge: the destination output port.
	EdgeDest
)

// String returns the kind name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeUplink:
		return "uplink"
	case EdgeTrunk:
		return "trunk"
	case EdgeDest:
		return "dest"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// EdgeBacklog is the dimensioning verdict of one directed edge.
type EdgeBacklog struct {
	// Kind classifies the edge (uplink, trunk, dest).
	Kind EdgeKind
	// From and To name the endpoints: stations by name, switches as
	// "sw<id>".
	From, To string
	// Switch is the switch the edge touches: the home switch for station
	// edges, the transmitting switch for trunks — the switch whose memory
	// budget the queue belongs to for EdgeTrunk and EdgeDest (an uplink
	// queue lives in the station itself).
	Switch int
	// Link is the undirected trunk index (Tree.Links) for EdgeTrunk, -1
	// otherwise.
	Link int
	// Bound is the worst-case queue occupancy in bits (0 when no flow
	// crosses the edge). Meaningless when Unstable.
	Bound simtime.Size
	// Unstable reports an over-subscribed edge (Σrᵢ exceeds the edge's
	// rate): no finite backlog bound exists.
	Unstable bool
	// Flows lists the connections routed through the edge, in catalog
	// order.
	Flows []string
}

// Key renders the edge as its canonical directed-edge key "from->to" —
// the currency shared with the simulator's observed high-water marks
// (core.SimResult.PortMaxBacklog) and the scenario's per-port queue
// capacities (sim section queue_capacities_bytes).
func (e EdgeBacklog) Key() string { return e.From + "->" + e.To }

// EdgeBacklogResult is the per-edge dimensioning table of one network
// plane.
type EdgeBacklogResult struct {
	Cfg Config
	// Edges holds every directed edge, in deterministic order: uplinks by
	// station name, trunks by link index (forward then reverse direction),
	// destination ports by station name.
	Edges []EdgeBacklog

	// index maps edge keys to Edges positions, built on first ByKey —
	// lookups over the whole table (capacity derivation, bound resolution
	// per simulated queue) would otherwise rescan Edges per query.
	index map[string]int
}

// ByKey returns the edge with the given key. The first call indexes the
// table; callers that append to Edges afterwards must not rely on ByKey
// seeing the additions.
func (r *EdgeBacklogResult) ByKey(key string) (EdgeBacklog, bool) {
	if r.index == nil {
		r.index = make(map[string]int, len(r.Edges))
		for i, e := range r.Edges {
			r.index[e.Key()] = i
		}
	}
	i, ok := r.index[key]
	if !ok {
		return EdgeBacklog{}, false
	}
	return r.Edges[i], true
}

// SwitchTotal sums the bounds of the switch-resident queues of one switch
// (destination and trunk output ports — uplink queues live in stations),
// reporting whether any of them is unstable and how many edges contribute.
func (r *EdgeBacklogResult) SwitchTotal(sw int) (total simtime.Size, edges int, unstable bool) {
	for _, e := range r.Edges {
		if e.Kind == EdgeUplink || e.Switch != sw {
			continue
		}
		edges++
		total += e.Bound
		unstable = unstable || e.Unstable
	}
	return total, edges, unstable
}

// swName renders a switch id as its report name.
func swName(id int) string { return fmt.Sprintf("sw%d", id) }

// EdgeBacklogs bounds the backlog of every directed edge of the tree for
// the workload: every station uplink, every trunk in both directions,
// every destination port. Per-trunk and per-station rate overrides are
// honored (they decide per-edge stability), and the destination-edge
// bounds coincide exactly with the historical PortBacklogs. The structure
// is compiled into a Plan once and reused through the process-wide plan
// table.
func EdgeBacklogs(set *traffic.Set, cfg Config, tree *Tree) (*EdgeBacklogResult, error) {
	if err := checkInputs(set, cfg); err != nil {
		return nil, err
	}
	return edgeBacklogs(set, cfg, tree, defaultTable())
}

// PlaneEdgeBacklogs is EdgeBacklogs over every plane tree of a redundant
// network: one table per tree, with the configuration and the workload
// checked once. An error names its plane ("plane <p>: ..."); a failed
// input check is reported against plane 0, the first one priced.
func PlaneEdgeBacklogs(set *traffic.Set, cfg Config, trees []*Tree) ([]*EdgeBacklogResult, error) {
	if len(trees) == 0 {
		return nil, nil
	}
	if err := checkInputs(set, cfg); err != nil {
		return nil, fmt.Errorf("plane 0: %w", err)
	}
	out := make([]*EdgeBacklogResult, len(trees))
	for p, tree := range trees {
		r, err := edgeBacklogs(set, cfg, tree, defaultTable())
		if err != nil {
			return nil, fmt.Errorf("plane %d: %w", p, err)
		}
		out[p] = r
	}
	return out, nil
}

// edgeBacklogs is EdgeBacklogs for inputs that passed checkInputs, with
// plans from table t (nil compiles one for the call and keeps none).
func edgeBacklogs(set *traffic.Set, cfg Config, tree *Tree, t *planTable) (*EdgeBacklogResult, error) {
	if tree == nil {
		return nil, errNilTree
	}
	p, err := t.plan(set, tree)
	if err != nil {
		return nil, err
	}
	return p.backlogs(set, cfg, tree)
}
