package analysis

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file lifts the per-multiplexer bounds to the network architecture:
// every station shapes and multiplexes its connections onto its uplink
// (source multiplexer), the switch relays within t_techno, and connections
// bound for the same station converge in that station's switch output port
// (destination multiplexer) — the congestion point of the paper's
// many-to-one avionics traffic.
//
// Two analyses are provided:
//
//   - SingleHop: the paper-faithful computation. One multiplexer per
//     destination port, the closed-form D or D_p over the connections
//     crossing it, t_techno added once. This is what Figure 1 plots.
//
//   - EndToEnd: a compositional refinement (this reproduction's extension):
//     the source multiplexer bound is computed first; each connection's
//     token bucket is then inflated to its output arrival curve
//     (bᵢ' = bᵢ + rᵢ·D_src, the standard delay-jitter transformation)
//     before the destination-port bound is computed, and the two stages
//     are summed. It is sound for the full two-multiplexer path, strictly
//     dominating the single-hop figure.

// PathBound is the analysis outcome for one connection.
type PathBound struct {
	// Spec is the connection's flow spec.
	Spec FlowSpec
	// SourceDelay bounds the wait in the source station's multiplexer
	// (zero in single-hop analysis).
	SourceDelay simtime.Duration
	// PortDelay bounds the wait in the switch output port, including the
	// relaying latency t_techno.
	PortDelay simtime.Duration
	// EndToEnd is the total response-time bound.
	EndToEnd simtime.Duration
	// Floor is the smallest achievable latency (pure serialization plus
	// relaying) — D_min for the jitter bound.
	Floor simtime.Duration
	// Jitter is EndToEnd − Floor, the paper's future-work metric.
	Jitter simtime.Duration
	// Met reports whether EndToEnd ≤ the connection's deadline.
	Met bool
}

// Result is a full network analysis under one approach.
type Result struct {
	Approach Approach
	Cfg      Config
	// Flows holds one PathBound per connection, in catalog order.
	Flows []PathBound
	// ClassWorst is the largest end-to-end bound per priority class.
	ClassWorst [traffic.NumPriorities]simtime.Duration
	// Violations counts connections whose deadline is not met.
	Violations int
}

// ByName returns the PathBound of a connection.
func (r *Result) ByName(name string) (PathBound, bool) {
	for _, f := range r.Flows {
		if f.Spec.Msg.Name == name {
			return f, true
		}
	}
	return PathBound{}, false
}

// ViolatedNames lists the connections missing their deadlines, sorted.
func (r *Result) ViolatedNames() []string {
	var out []string
	for _, f := range r.Flows {
		if !f.Met {
			out = append(out, f.Spec.Msg.Name)
		}
	}
	sort.Strings(out)
	return out
}

// muxBound computes the discipline-dependent bound of one multiplexer for
// a member connection.
func muxBound(specs []FlowSpec, member FlowSpec, approach Approach, cfg Config) (simtime.Duration, error) {
	switch approach {
	case FCFS:
		return FCFSBound(specs, cfg)
	case Priority:
		return PriorityBound(specs, member.Msg.Priority, cfg)
	default:
		return 0, fmt.Errorf("analysis: unknown approach %v", approach)
	}
}

// SingleHop runs the paper-faithful analysis: each connection's bound is
// the closed-form latency of its destination multiplexer (all connections
// converging on the same station), t_techno included.
func SingleHop(set *traffic.Set, approach Approach, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })

	res := &Result{Approach: approach, Cfg: cfg}
	for _, f := range specs {
		port := byDest[f.Msg.Dest]
		d, err := muxBound(port, f, approach, cfg)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		pb := PathBound{
			Spec:      f,
			PortDelay: d,
			EndToEnd:  d,
			Floor:     TransmissionFloor(f, cfg),
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// EndToEnd runs the two-stage compositional analysis: source multiplexer,
// arrival-curve inflation, destination multiplexer.
func EndToEnd(set *traffic.Set, approach Approach, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)
	bySource := groupBy(specs, func(f FlowSpec) string { return f.Msg.Source })

	// Stage 1: source multiplexers. No relaying latency inside a station.
	srcCfg := cfg
	srcCfg.TTechno = 0
	srcDelay := map[string]simtime.Duration{}
	inflated := make([]FlowSpec, 0, len(specs))
	for _, f := range specs {
		d, err := muxBound(bySource[f.Msg.Source], f, approach, srcCfg)
		if err != nil {
			return nil, fmt.Errorf("station %s: %w", f.Msg.Source, err)
		}
		srcDelay[f.Msg.Name] = d
		inflated = append(inflated, inflate(f, d))
	}

	// Stage 2: destination ports see the inflated output curves.
	byDest := groupBy(inflated, func(f FlowSpec) string { return f.Msg.Dest })
	res := &Result{Approach: approach, Cfg: cfg}
	for i, f := range specs {
		inf := inflated[i]
		d, err := muxBound(byDest[f.Msg.Dest], inf, approach, cfg)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		pb := PathBound{
			Spec:        f,
			SourceDelay: srcDelay[f.Msg.Name],
			PortDelay:   d,
			EndToEnd:    srcDelay[f.Msg.Name] + d,
			// The floor crosses two serializations (station uplink and
			// switch output) plus the relaying latency.
			Floor: 2*simtime.TransmissionTime(f.B, cfg.LinkRate) + cfg.TTechno,
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// inflate applies the delay-jitter output transformation: a (b, r) flow
// delayed by at most d becomes (b + r·d, r)-constrained.
func inflate(f FlowSpec, d simtime.Duration) FlowSpec {
	return FlowSpec{Msg: f.Msg, B: inflateBurst(f.B, f.R, d), R: f.R}
}

// inflateBurst returns the burst b + r·d (rounded up) of a (b, r) flow
// delayed by at most d.
func inflateBurst(b simtime.Size, r simtime.Rate, d simtime.Duration) simtime.Size {
	return b + simtime.Size(math.Ceil(float64(r.BitsPerSecond())*d.Seconds()))
}

// add appends a PathBound and maintains the aggregates.
func (r *Result) add(pb PathBound) {
	r.Flows = append(r.Flows, pb)
	p := pb.Spec.Msg.Priority
	if pb.EndToEnd > r.ClassWorst[p] {
		r.ClassWorst[p] = pb.EndToEnd
	}
	if !pb.Met {
		r.Violations++
	}
}

// groupBy partitions specs by a key.
func groupBy(specs []FlowSpec, key func(FlowSpec) string) map[string][]FlowSpec {
	out := map[string][]FlowSpec{}
	for _, f := range specs {
		out[key(f)] = append(out[key(f)], f)
	}
	return out
}

// PortBacklogs returns the backlog bound of every destination port — the
// buffer dimensioning table for the switch.
//
// Deprecated: PortBacklogs prices destination station ports only. Use
// EdgeBacklogs, which bounds every directed edge of the architecture
// (station uplinks and trunk output ports included) and reproduces these
// destination-port numbers exactly (TestEdgeBacklogsMatchesPortBacklogs).
func PortBacklogs(set *traffic.Set, cfg Config) (map[string]simtime.Size, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })
	out := map[string]simtime.Size{}
	for _, dest := range slices.Sorted(maps.Keys(byDest)) {
		port := byDest[dest]
		b, err := BacklogBound(port, cfg)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", dest, err)
		}
		out[dest] = b
	}
	return out, nil
}
