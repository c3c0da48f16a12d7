package ethernet

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/simtime"
)

// QueueKind selects the output-port discipline of a switch — the two
// approaches the paper compares.
type QueueKind int

const (
	// QueueFCFS is a single FIFO per output port (approach 1: traffic
	// shaping only).
	QueueFCFS QueueKind = iota
	// QueuePriority is the 4-class strict-priority discipline of 802.1p
	// (approach 2: shaping + priority handling).
	QueuePriority
)

// String returns the kind name.
func (k QueueKind) String() string {
	switch k {
	case QueueFCFS:
		return "fcfs"
	case QueuePriority:
		return "priority"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// SwitchConfig parameterizes a store-and-forward switch.
type SwitchConfig struct {
	// Name identifies the switch in traces.
	Name string
	// RelayLatency is the technological latency t_techno: the fixed
	// worst-case delay between complete reception of a frame on an input
	// port and its availability in the output queue (lookup, fabric
	// crossing). The paper carries it as an additive bound.
	RelayLatency simtime.Duration
	// Kind selects the output queue discipline.
	Kind QueueKind
	// QueueCapacity is the byte capacity per output FIFO (per class for
	// QueuePriority); 0 means unbounded.
	QueueCapacity simtime.Size
	// QueueCapacities optionally overrides QueueCapacity per output port
	// (keyed by port id) — analysis-derived buffer dimensioning sizes each
	// multiplexing point individually. Missing ports fall back to
	// QueueCapacity.
	QueueCapacities map[int]simtime.Size
}

// Switch is a full-duplex store-and-forward Ethernet switch: frames are
// received completely on an input port, looked up in the forwarding
// database, moved across the fabric within RelayLatency, and queued on the
// destination output port.
type Switch struct {
	cfg SwitchConfig
	sim *des.Simulator
	// out is the egress Port of each attached port, indexed by port id
	// (nil where no port is attached): ids are dense small integers
	// (directed-edge ids in the network model), so the per-frame egress
	// lookup is a slice index rather than a map probe.
	out []*Port
	ids []int // attached port ids, ascending, so flood replication order is deterministic
	fdb map[Addr]int

	// relay is the FIFO of frames crossing the fabric. Every crossing
	// takes exactly RelayLatency, so relay completions fire in submission
	// order and the single pre-bound relayFn handler always consumes the
	// head — no per-frame closure.
	relay     []relayEntry
	relayHead int
	relayFn   des.Handler

	// Flooded counts frames replicated to all ports for lack of an FDB
	// entry (or broadcast destination).
	Flooded int
}

// relayEntry is one frame mid-fabric, bound for an output port.
type relayEntry struct {
	f   *Frame
	out *Port
}

// NewSwitch creates an empty switch; attach devices with AttachPort.
func NewSwitch(sim *des.Simulator, cfg SwitchConfig) *Switch {
	if sim == nil {
		panic("ethernet: nil simulator")
	}
	if cfg.RelayLatency < 0 {
		panic(fmt.Sprintf("ethernet: negative relay latency %v", cfg.RelayLatency))
	}
	s := &Switch{cfg: cfg, sim: sim, fdb: map[Addr]int{}}
	s.relayFn = s.relayPop
	// Presize the relay ring past its compaction threshold so the steady
	// state is reached in one allocation.
	s.relay = make([]relayEntry, 0, 16)
	return s
}

// Config returns the switch configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// newQueue builds the output queue of port id per the configured kind,
// honoring the per-port capacity override.
func (s *Switch) newQueue(id int) Queue {
	capacity := s.cfg.QueueCapacity
	if c, ok := s.cfg.QueueCapacities[id]; ok {
		capacity = c
	}
	switch s.cfg.Kind {
	case QueueFCFS:
		return NewFCFSQueue(capacity)
	case QueuePriority:
		return NewPriorityQueue(capacity)
	default:
		panic(fmt.Sprintf("ethernet: unknown queue kind %v", s.cfg.Kind))
	}
}

// AttachPort creates switch port id (≥ 0) with a downlink of the given
// rate and propagation delay toward a device, delivering received frames
// to deliver. It returns the function the device calls to hand the switch
// a fully received frame on that port (the uplink's deliver callback).
func (s *Switch) AttachPort(id int, rate simtime.Rate, prop simtime.Duration, deliver func(*Frame)) (ingress func(*Frame)) {
	if id < 0 {
		panic(fmt.Sprintf("ethernet: negative switch port %d", id))
	}
	if s.port(id) != nil {
		panic(fmt.Sprintf("ethernet: duplicate switch port %d", id))
	}
	for len(s.out) <= id {
		s.out = append(s.out, nil)
	}
	name := fmt.Sprintf("%s.port%d", s.cfg.Name, id)
	s.out[id] = NewPort(name, s.sim, s.newQueue(id), rate, prop, deliver)
	s.ids = append(s.ids, id)
	sort.Ints(s.ids)
	return func(f *Frame) { s.receive(id, f) }
}

// Learn installs a static FDB entry mapping addr to port id.
func (s *Switch) Learn(addr Addr, portID int) {
	if s.port(portID) == nil {
		panic(fmt.Sprintf("ethernet: Learn on unknown port %d", portID))
	}
	s.fdb[addr] = portID
}

// Lookup returns the FDB entry for addr.
func (s *Switch) Lookup(addr Addr) (portID int, ok bool) {
	id, ok := s.fdb[addr]
	return id, ok
}

// receive handles a fully received frame on input port in: source learning,
// destination lookup, and relay to the output queue after RelayLatency.
//
//rtlint:hotpath
func (s *Switch) receive(in int, f *Frame) {
	// Source learning, as a real switch does. The entry is written only
	// when it changes: in a statically configured network every source is
	// already known on its ingress port, so the steady state only reads.
	if !f.Src.IsMulticast() {
		if id, ok := s.fdb[f.Src]; !ok || id != in {
			s.fdb[f.Src] = in
		}
	}
	if !f.Dst.IsBroadcast() {
		if id, ok := s.fdb[f.Dst]; ok {
			if id != in { // never reflect back out the ingress port
				s.relayTo(s.out[id], f)
			}
			return
		}
	}
	// Flood: broadcast or unknown unicast. Replicate in ascending port
	// order — map iteration order here would make fabric submission order,
	// and with it every downstream departure time, vary run to run.
	s.Flooded++
	for _, id := range s.ids {
		if id != in {
			s.relayTo(s.out[id], f)
		}
	}
}

// relayTo submits a frame to the fabric toward one output port.
func (s *Switch) relayTo(out *Port, f *Frame) {
	//rtlint:presized relay ring presized in NewSwitch and compacted by relayPop
	s.relay = append(s.relay, relayEntry{f: f, out: out})
	s.sim.After(s.cfg.RelayLatency, s.relayFn)
}

// relayPop completes the oldest fabric crossing: the frame joins its
// output queue (which drops it to the port's OnDiscard when full).
//
//rtlint:hotpath
func (s *Switch) relayPop() {
	e := s.relay[s.relayHead]
	s.relay[s.relayHead] = relayEntry{}
	s.relayHead++
	// Compact occasionally so memory does not grow with total throughput.
	if s.relayHead > 8 && s.relayHead*2 >= len(s.relay) {
		n := copy(s.relay, s.relay[s.relayHead:])
		s.relay = s.relay[:n]
		s.relayHead = 0
	}
	e.out.Send(e.f)
}

// PortIDs returns the attached port ids in ascending order.
func (s *Switch) PortIDs() []int {
	return append([]int(nil), s.ids...)
}

// OutputPort returns the egress Port of switch port id (for statistics and
// departure hooks).
func (s *Switch) OutputPort(id int) *Port {
	p := s.port(id)
	if p == nil {
		panic(fmt.Sprintf("ethernet: unknown switch port %d", id))
	}
	return p
}

// port returns the egress Port of switch port id, or nil if none is
// attached.
func (s *Switch) port(id int) *Port {
	if id < 0 || id >= len(s.out) {
		return nil
	}
	return s.out[id]
}
