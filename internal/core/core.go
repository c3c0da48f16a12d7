// Package core is the public orchestration layer of the reproduction: it
// assembles the full system — traffic sources, per-connection token-bucket
// shapers, station multiplexers, the store-and-forward switch — into a
// running simulation, computes the paper's analytic bounds over the same
// scenario, and drives every experiment (Figure 1, the prose claims, the
// 1553B baseline, and the ablation sweeps).
//
// One topology-generic engine, SimulateNetwork, simulates every
// architecture over a declarative network description
// (topology.Network): the paper's star of stations around one Full-Duplex
// Switched Ethernet switch, cascaded and tree-shaped multi-switch
// backbones, daisy-chain lines, and dual-redundant AFDX-style networks.
// Every connection is shaped at its source to (bᵢ, rᵢ = bᵢ/Tᵢ); stations
// multiplex shaped frames onto their uplink with the selected discipline
// (FCFS or 4-class strict priority); switches relay within t_techno and
// queue frames at the next output port under the same discipline.
package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SimConfig parameterizes one simulation run.
type SimConfig struct {
	// Approach selects FCFS or strict-priority multiplexing everywhere.
	Approach analysis.Approach
	// LinkRate is the rate of every link (paper: 10 Mbps).
	LinkRate simtime.Rate
	// TTechno is the switch relaying latency (worst case, applied to every
	// frame — the simulation realizes the bound's assumption).
	TTechno simtime.Duration
	// Horizon is the simulated time span.
	Horizon simtime.Duration
	// Seed drives sporadic phases and random gaps.
	Seed uint64
	// Mode is the sporadic release behaviour (Greedy reproduces the
	// worst-case assumption of the analysis).
	Mode traffic.SporadicMode
	// MeanSlack is the mean extra exponential gap between sporadic
	// releases in RandomGaps mode (0 degenerates to Greedy spacing).
	MeanSlack simtime.Duration
	// AlignPhases releases every connection at t=0 (critical instant).
	AlignPhases bool
	// QueueCapacity bounds every queue in bytes (0 = unbounded; bounded
	// queues expose the loss mode the paper warns about).
	QueueCapacity simtime.Size
	// QueueCapacities optionally bounds individual queues, keyed by the
	// directed edge owning the queue: "nav->sw0" (a station's uplink
	// multiplexer), "sw0->sw1" (a trunk output port), "sw0->mc" (a
	// destination output port). On redundant networks a key may carry a
	// plane prefix ("n1.sw0->mc") to size one plane's queue alone; the
	// most specific key wins (plane-qualified, then bare, then
	// QueueCapacity). A present key overrides the default even when 0
	// (explicitly unbounded). Like QueueCapacity, the value applies PER
	// CLASS under the priority discipline (each class FIFO gets the full
	// capacity), so a priority port can physically buffer up to
	// NumClasses× the stated bytes. This is how analysis-derived buffer
	// dimensioning (EdgeBacklogs) flows back into the simulation.
	QueueCapacities map[string]simtime.Size
	// BER is a residual bit-error rate applied to every link (0 = clean
	// medium). Corrupted frames fail the receiver FCS and vanish.
	BER float64
	// SkewMax is the ARINC 664 integrity-checking acceptance window,
	// applied per virtual link (per connection) on redundant networks:
	// after the first copy of an instance is delivered, duplicate copies
	// arriving within SkewMax count as healthy redundancy
	// (SimResult.Redundant); duplicates arriving later are rejected as
	// integrity violations (SimResult.Discarded) — a plane so late its
	// copies fall outside the window is observable instead of silently
	// merged. 0 = unbounded window, the classic first-copy-wins receiver.
	// Ignored on single-plane networks.
	SkewMax simtime.Duration
	// CollectLatencies additionally records every delivery latency in a
	// per-connection Histogram (FlowSim.Latencies) so replicated runs can
	// be merged into exact quantiles. Off by default: the Summary is
	// enough for single runs and costs no memory.
	CollectLatencies bool
	// Recorder, if non-nil, captures frame lifecycle events (released,
	// shaped, delivered, dropped).
	Recorder *trace.Recorder
	// PCAP, if non-nil, receives every delivered frame as real wire bytes
	// with its virtual timestamp.
	PCAP *trace.PCAPWriter

	// Babbler, if non-empty, names a connection whose source misbehaves:
	// each release is repeated BabbleFactor times ("babbling idiot").
	// Used by experiment R1 to show the shapers containing a fault.
	Babbler string
	// BabbleFactor is the misbehaviour multiplier (≥ 1; 0 treated as 1).
	BabbleFactor int
	// BypassShapers disconnects all traffic shapers, feeding frames
	// straight into the station multiplexers — the uncontrolled network
	// whose unpredictability motivates the paper.
	BypassShapers bool
}

// DefaultSimConfig returns the paper-matched simulation parameters: 10 Mbps
// links, 140 µs relaying latency, greedy aligned sources (critical
// instant), and a 2 s horizon (12.5 major frames).
func DefaultSimConfig(approach analysis.Approach) SimConfig {
	return SimConfig{
		Approach:    approach,
		LinkRate:    10 * simtime.Mbps,
		TTechno:     140 * simtime.Microsecond,
		Horizon:     2 * simtime.Second,
		Seed:        1,
		Mode:        traffic.Greedy,
		AlignPhases: true,
	}
}

// AnalysisConfig derives the matching analytic configuration.
func (c SimConfig) AnalysisConfig() analysis.Config {
	return analysis.Config{LinkRate: c.LinkRate, TTechno: c.TTechno, Tagged: true}
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if c.LinkRate <= 0 {
		return fmt.Errorf("core: non-positive link rate %v", c.LinkRate)
	}
	if c.TTechno < 0 {
		return fmt.Errorf("core: negative t_techno %v", c.TTechno)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("core: non-positive horizon %v", c.Horizon)
	}
	if c.SkewMax < 0 {
		return fmt.Errorf("core: negative skew_max %v", c.SkewMax)
	}
	for _, key := range slices.Sorted(maps.Keys(c.QueueCapacities)) {
		if cap := c.QueueCapacities[key]; cap < 0 {
			return fmt.Errorf("core: negative capacity %v for queue %q", cap, key)
		}
	}
	return nil
}

// FlowSim is the measured behaviour of one connection.
type FlowSim struct {
	// Msg is the connection.
	Msg *traffic.Message
	// Latency summarizes observed release-to-delivery times.
	Latency stats.Summary
	// Latencies holds every delivery latency when
	// SimConfig.CollectLatencies is set (nil otherwise).
	Latencies *stats.Histogram
	// Released counts instances handed to the shaper.
	Released int
	// Delivered counts instances whose frame completed reception.
	Delivered int
	// DeadlineMisses counts deliveries later than the deadline.
	DeadlineMisses int
}

// SimResult is the outcome of one simulation run.
type SimResult struct {
	Cfg SimConfig
	// Flows maps connection name to its measurements.
	Flows map[string]*FlowSim
	// ClassWorst is the largest observed latency per priority class.
	ClassWorst [traffic.NumPriorities]simtime.Duration
	// Dropped counts frames lost to bounded queues anywhere.
	Dropped int
	// Corrupted counts frames lost to bit errors (BER model).
	Corrupted int
	// Shaped counts frames the token buckets had to delay — nonzero only
	// when some source exceeded its declared contract.
	Shaped int
	// Events is the number of simulator events executed.
	Events uint64
	// PlaneDelivered counts frame copies that completed reception per
	// redundant network plane (nil on single-plane topologies). Unlike
	// FlowSim.Delivered it counts every copy, including redundant ones.
	PlaneDelivered []int
	// Redundant counts copies discarded because another plane's copy of
	// the same instance arrived first, within the acceptance window
	// (0 on single-plane topologies).
	Redundant int
	// Discarded counts copies rejected by the ARINC 664 integrity-checking
	// window: a duplicate arriving after the acceptance window of its
	// instance closed. Always 0 when the window is unbounded — then every
	// duplicate counts as Redundant.
	Discarded int
	// PortMaxBacklog maps every queue of the network — station uplink
	// multiplexers, trunk output ports, destination output ports — to its
	// observed occupancy high-water mark, keyed by the directed edge that
	// owns the queue ("nav->sw0", "sw0->sw1", "sw0->mc"; plane-qualified
	// "n<p>.…" on redundant networks). Under the priority discipline the
	// value is the TRUE total-occupancy peak (all classes together), so it
	// is directly comparable to the aggregate backlog bound of
	// analysis.EdgeBacklogs.
	PortMaxBacklog map[string]simtime.Size
	// PortClassMaxBacklog holds the per-class high-water marks of the
	// same queues (same keys, one entry per 802.1p class) under the
	// priority discipline; nil under FCFS. Each class peaks at its own
	// instant, so these do NOT sum to PortMaxBacklog.
	PortClassMaxBacklog map[string][]simtime.Size
}

// WorstLatency returns the largest observed latency of one connection
// (0 if it never delivered).
func (r *SimResult) WorstLatency(name string) simtime.Duration {
	f, ok := r.Flows[name]
	if !ok {
		return 0
	}
	return f.Latency.Max()
}

// TotalDelivered sums deliveries over all connections.
func (r *SimResult) TotalDelivered() int {
	n := 0
	//rtlint:unordered commutative sum of per-flow counters
	for _, f := range r.Flows {
		n += f.Delivered
	}
	return n
}

// Simulate builds the paper's star network for the message set and runs
// it: every station around one switch. It delegates to SimulateNetwork —
// the star is the one-switch topology.
func Simulate(set *traffic.Set, cfg SimConfig) (*SimResult, error) {
	return SimulateNetwork(set, cfg, topology.Star(set.Stations()))
}
