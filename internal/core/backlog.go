package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file lifts the per-edge backlog bounds (analysis.EdgeBacklogs) to
// a whole topology.Network: one per-edge table per redundant plane, each
// plane priced over its own materialized tree (rate scales and overrides
// honored — a plane negotiated down can be over-subscribed, and then its
// edges are Unstable, while the healthy plane keeps finite bounds). The
// result speaks the same directed-edge key language as the simulator's
// observed high-water marks (SimResult.PortMaxBacklog) and the scenario's
// queue_capacities_bytes, closing the loop: bounds → capacities →
// simulation → observed ≤ bound with zero loss.

// NetworkBacklogs is the buffer dimensioning of every queue of a network,
// per plane.
type NetworkBacklogs struct {
	// Net is the priced architecture.
	Net *topology.Network
	// Planes holds one per-edge table per plane (a single entry on
	// single-plane networks). Identical planes price identically.
	Planes []*analysis.EdgeBacklogResult
}

// EdgeBacklogs bounds the backlog of every directed edge of the network —
// station uplinks, trunks in both directions, destination ports — one
// table per redundant plane, each plane priced at its own (scaled,
// overridden) link rates.
func EdgeBacklogs(net *topology.Network, set *traffic.Set, cfg analysis.Config) (*NetworkBacklogs, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if err := net.Validate(set.Stations()); err != nil {
		return nil, err
	}
	trees := make([]*analysis.Tree, net.PlaneCount())
	for p := range trees {
		trees[p] = net.PlaneTree(p, cfg.LinkRate)
	}
	planes, err := analysis.PlaneEdgeBacklogs(set, cfg, trees)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &NetworkBacklogs{Net: net, Planes: planes}, nil
}

// Backlogs prices every queue of the scenario's architecture.
func (s *Scenario) Backlogs() (*NetworkBacklogs, error) {
	return EdgeBacklogs(s.Net, s.Set, s.Analysis())
}

// Identical reports whether every plane prices every edge identically —
// true for single-plane networks and for classic symmetric duals, false
// only when some plane's rate scaling moves an edge into instability
// (the bound Σbᵢ + Σrᵢ·t_techno itself is rate-independent).
func (b *NetworkBacklogs) Identical() bool {
	for _, r := range b.Planes[1:] {
		if len(r.Edges) != len(b.Planes[0].Edges) {
			return false
		}
		for i, e := range r.Edges {
			o := b.Planes[0].Edges[i]
			if e.Bound != o.Bound || e.Unstable != o.Unstable {
				return false
			}
		}
	}
	return true
}

// Bound resolves a (possibly plane-qualified) queue key to its per-edge
// bound.
func (b *NetworkBacklogs) Bound(key string) (analysis.EdgeBacklog, bool) {
	p, bare, ok := topology.SplitPlaneKey(key, len(b.Planes))
	if !ok {
		return analysis.EdgeBacklog{}, false
	}
	return b.Planes[p].ByKey(bare)
}

// Capacities derives the per-port dimensioning map (bare edge key →
// bytes, rounding up) that feeds the scenario sim section's
// queue_capacities_bytes: per edge the largest bound across planes, so
// one unqualified capacity is safe for every plane. Two edge classes are
// omitted and stay at the scenario's global default: edges unstable on
// ANY plane (no finite capacity covers them — truncating would
// manufacture a loss mode) and edges no flow crosses (their bound is
// 0 B, but a 0 capacity means *explicitly unbounded* in the override
// semantics, the opposite of a budget).
func (b *NetworkBacklogs) Capacities() map[string]int {
	out := map[string]int{}
	for _, e := range b.Planes[0].Edges {
		if len(e.Flows) == 0 {
			continue
		}
		worst := simtime.Size(0)
		unstable := false
		for _, r := range b.Planes {
			pe, ok := r.ByKey(e.Key())
			if !ok || pe.Unstable {
				unstable = true
				break
			}
			if pe.Bound > worst {
				worst = pe.Bound
			}
		}
		if !unstable {
			out[e.Key()] = worst.ByteCount()
		}
	}
	return out
}

// QueueCapacities renders Capacities as the SimConfig.QueueCapacities
// map, closing the dimensioning loop in code.
func (b *NetworkBacklogs) QueueCapacities() map[string]simtime.Size {
	caps := b.Capacities()
	out := make(map[string]simtime.Size, len(caps))
	//rtlint:unordered map fill, one key at a time
	for key, c := range caps {
		out[key] = simtime.Bytes(c)
	}
	return out
}

// KeyedEdge pairs a plane-qualified queue key with its per-edge bound.
type KeyedEdge struct {
	Key  string
	Edge analysis.EdgeBacklog
}

// Ordered flattens the per-plane tables into the deterministic queue
// order the reports use: plane by plane, each in its per-edge order, with
// plane-qualified keys on redundant networks.
func (b *NetworkBacklogs) Ordered() []KeyedEdge {
	var out []KeyedEdge
	for p, r := range b.Planes {
		prefix := topology.PlaneKeyPrefix(p, len(b.Planes))
		for _, e := range r.Edges {
			out = append(out, KeyedEdge{Key: prefix + e.Key(), Edge: e})
		}
	}
	return out
}

// BacklogVerdict is the observed-versus-bound summary of one or more
// simulation runs against the per-edge bounds.
type BacklogVerdict struct {
	// Ports counts the queues checked (every plane separately).
	Ports int
	// Unsound counts queues whose observed high-water mark exceeded the
	// edge's backlog bound (unstable edges have no bound and cannot be
	// violated).
	Unsound int
	// WorstKey is the most utilized bounded queue — the largest
	// observed/bound ratio — with its observation and bound; empty when
	// nothing was observed.
	WorstKey      string
	WorstObserved simtime.Size
	WorstBound    simtime.Size
}

// Sound reports whether every observed queue respected its bound.
func (v BacklogVerdict) Sound() bool { return v.Unsound == 0 }

// Check validates the observed per-port high-water marks of the given
// runs against the bounds: per queue (per plane) the worst observation
// across all runs is compared to the edge's bound.
func (b *NetworkBacklogs) Check(sims []*SimResult) BacklogVerdict {
	merged := map[string]simtime.Size{}
	for _, sim := range sims {
		//rtlint:unordered max-merge per key, commutative
		for key, m := range sim.PortMaxBacklog {
			if old, ok := merged[key]; !ok || m > old {
				merged[key] = m
			}
		}
	}
	return b.CheckMarks(merged)
}

// CheckMarks validates pre-merged observed high-water marks (keyed like
// SimResult.PortMaxBacklog, e.g. Validation.PortMaxBacklog) against the
// bounds. Deterministic: queues are visited in the per-plane edge order,
// never in map order.
func (b *NetworkBacklogs) CheckMarks(marks map[string]simtime.Size) BacklogVerdict {
	v := BacklogVerdict{}
	for _, ke := range b.Ordered() {
		observed, seen := marks[ke.Key]
		if !seen {
			continue
		}
		e := ke.Edge
		v.Ports++
		if e.Unstable {
			continue // no finite bound to violate
		}
		if observed > e.Bound {
			v.Unsound++
		}
		// Track the tightest port: largest observed/bound ratio, compared
		// exactly in the integers (o1/b1 > o2/b2 ⇔ o1·b2 > o2·b1) so the
		// verdict is platform-independent.
		if e.Bound > 0 && observed > 0 &&
			(v.WorstKey == "" || int64(observed)*int64(v.WorstBound) > int64(v.WorstObserved)*int64(e.Bound)) {
			v.WorstKey, v.WorstObserved, v.WorstBound = ke.Key, observed, e.Bound
		}
	}
	return v
}
