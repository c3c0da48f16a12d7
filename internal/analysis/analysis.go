// Package analysis implements the paper's contribution: worst-case delay
// bounds for shaped avionics traffic over Full-Duplex Switched Ethernet,
// under the two compared service disciplines.
//
// Approach 1 — traffic shaping + FCFS multiplexing. Every connection i is
// shaped to the token bucket (bᵢ, rᵢ = bᵢ/Tᵢ); a FCFS multiplexer of
// capacity C then has the bounded latency
//
//	D = Σ_{i∈S} bᵢ/C + t_techno                                  (paper §2)
//
// Approach 2 — shaping + 802.1p strict priorities ("4-FCFS multiplexer"):
//
//	D_p = ( Σ_{i∈⋃_{q≤p}S_q} bᵢ + max_{j∈⋃_{q>p}S_q} bⱼ )
//	      / ( C − Σ_{i∈⋃_{q<p}S_q} rᵢ )  +  t_techno             (paper §2)
//
// Both closed forms are implemented directly, and every bound is
// cross-checked against the generic network-calculus pipeline
// (internal/netcalc) — residual service curves plus horizontal deviation —
// which reproduces them exactly for token-bucket flows.
package analysis

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ethernet"
	"repro/internal/netcalc"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// Approach selects the multiplexing discipline under analysis.
type Approach int

const (
	// FCFS is approach 1: traffic shaping with a single FIFO.
	FCFS Approach = iota
	// Priority is approach 2: shaping plus the 4-class strict-priority
	// multiplexer of 802.1p.
	Priority
)

// ParseApproach resolves an approach name ("fcfs", "priority" or "prio",
// case-insensitive) — the format of CLI flags and scenario files.
func ParseApproach(s string) (Approach, error) {
	switch strings.ToLower(s) {
	case "fcfs":
		return FCFS, nil
	case "priority", "prio":
		return Priority, nil
	default:
		return 0, fmt.Errorf("analysis: unknown approach %q (want fcfs|priority)", s)
	}
}

// String returns the approach name.
func (a Approach) String() string {
	switch a {
	case FCFS:
		return "FCFS"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Config fixes the network parameters of the analysis.
type Config struct {
	// LinkRate is C, the capacity of every link (the paper uses 10 Mbps).
	LinkRate simtime.Rate
	// TTechno is the bound on the switch relaying delay.
	TTechno simtime.Duration
	// Tagged selects 802.1Q encapsulation (needed by the priority
	// approach; adds 4 B to every frame).
	Tagged bool
}

// DefaultConfig returns the paper's parameters: C = 10 Mbps and a 140 µs
// technological latency, with 802.1Q tagging on.
func DefaultConfig() Config {
	return Config{LinkRate: 10 * simtime.Mbps, TTechno: 140 * simtime.Microsecond, Tagged: true}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LinkRate <= 0 {
		return fmt.Errorf("analysis: non-positive link rate %v", c.LinkRate)
	}
	if c.TTechno < 0 {
		return fmt.Errorf("analysis: negative t_techno %v", c.TTechno)
	}
	return nil
}

// FlowSpec is one connection reduced to the quantities the bounds consume:
// the paper's (Tᵢ, bᵢ) with bᵢ measured on the wire (frame overhead,
// padding, preamble and IFG included) and rᵢ = bᵢ/Tᵢ.
type FlowSpec struct {
	// Msg is the underlying connection.
	Msg *traffic.Message
	// B is bᵢ: the on-wire size of one message instance, in bits.
	B simtime.Size
	// R is rᵢ: the sustained shaped rate.
	R simtime.Rate
}

// Specs converts a message set into flow specs under the configuration.
func Specs(set *traffic.Set, cfg Config) []FlowSpec {
	specs := make([]FlowSpec, 0, len(set.Messages))
	for _, m := range set.Messages {
		b := ethernet.WireSizeForPayload(m.Payload.ByteCount(), cfg.Tagged)
		specs = append(specs, FlowSpec{Msg: m, B: b, R: m.Rate(b)})
	}
	return specs
}

// SumB returns Σ bᵢ over the specs, in bits.
func SumB(specs []FlowSpec) simtime.Size {
	var s simtime.Size
	for _, f := range specs {
		s += f.B
	}
	return s
}

// SumR returns Σ rᵢ over the specs.
func SumR(specs []FlowSpec) simtime.Rate {
	var s simtime.Rate
	for _, f := range specs {
		s += f.R
	}
	return s
}

// MaxB returns max bᵢ over the specs (0 if empty) — the non-preemption
// blocking term of the priority bound.
func MaxB(specs []FlowSpec) simtime.Size {
	var m simtime.Size
	for _, f := range specs {
		if f.B > m {
			m = f.B
		}
	}
	return m
}

// ByPriority splits specs into the paper's four classes.
func ByPriority(specs []FlowSpec) [traffic.NumPriorities][]FlowSpec {
	var out [traffic.NumPriorities][]FlowSpec
	for _, f := range specs {
		out[f.Msg.Priority] = append(out[f.Msg.Priority], f)
	}
	return out
}

// ErrUnstable is reported when Σ rᵢ exceeds the multiplexer capacity, so
// no finite bound exists.
var ErrUnstable = fmt.Errorf("analysis: aggregate rate exceeds link capacity")

// secondsToDuration converts a bound in seconds to a Duration, rounding up
// so bounds stay conservative under the ns quantization.
func secondsToDuration(s float64) simtime.Duration {
	return simtime.Duration(math.Ceil(s * float64(simtime.Second)))
}

// FCFSBound computes the paper's approach-1 multiplexer bound
// D = Σ bᵢ/C + t_techno for the connections in specs.
func FCFSBound(specs []FlowSpec, cfg Config) (simtime.Duration, error) {
	return fcfsBound(SumB(specs), SumR(specs), cfg)
}

// fcfsBound is FCFSBound over the group's sums Σbᵢ and Σrᵢ, the only
// quantities the closed form reads.
func fcfsBound(sumB simtime.Size, sumR simtime.Rate, cfg Config) (simtime.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if sumR > cfg.LinkRate {
		return 0, ErrUnstable
	}
	d := float64(sumB.Bits()) / float64(cfg.LinkRate.BitsPerSecond())
	return secondsToDuration(d) + cfg.TTechno, nil
}

// PriorityBound computes the paper's approach-2 bound D_p for class p over
// the connections in specs (all classes together; the function splits
// them).
func PriorityBound(specs []FlowSpec, p traffic.Priority, cfg Config) (simtime.Duration, error) {
	var s classSums
	for _, f := range specs {
		s.add(f.B, f.R, f.Msg.Priority)
	}
	return s.priorityBound(p, cfg)
}

// classSums holds the per-class integer sums the closed forms read from
// one multiplexer's flow group: Σbᵢ, Σrᵢ, max bᵢ and the member count of
// each 802.1p class. Integer sums do not depend on the order the members
// are added in, so a group summed in any order prices identically.
type classSums struct {
	b, max [traffic.NumPriorities]simtime.Size
	r      [traffic.NumPriorities]simtime.Rate
	n      [traffic.NumPriorities]int
}

// add accounts one member flow (bᵢ, rᵢ) of class p.
func (s *classSums) add(b simtime.Size, r simtime.Rate, p traffic.Priority) {
	s.b[p] += b
	s.r[p] += r
	if b > s.max[p] {
		s.max[p] = b
	}
	s.n[p]++
}

// total returns Σbᵢ and Σrᵢ over every class.
func (s *classSums) total() (simtime.Size, simtime.Rate) {
	var b simtime.Size
	var r simtime.Rate
	for q := traffic.P0; q < traffic.NumPriorities; q++ {
		b += s.b[q]
		r += s.r[q]
	}
	return b, r
}

// priorityBound evaluates D_p for class p over the summed group.
func (s *classSums) priorityBound(p traffic.Priority, cfg Config) (simtime.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if !p.Valid() {
		return 0, fmt.Errorf("analysis: invalid priority %v", p)
	}
	if _, sumR := s.total(); sumR > cfg.LinkRate {
		return 0, ErrUnstable
	}
	var numBits int64
	var higherRate simtime.Rate
	var lowerMax simtime.Size
	for q := traffic.P0; q < traffic.NumPriorities; q++ {
		switch {
		case q < p:
			numBits += int64(s.b[q])
			higherRate += s.r[q]
		case q == p:
			numBits += int64(s.b[q])
		default:
			lowerMax = max(lowerMax, s.max[q])
		}
	}
	numBits += int64(lowerMax)
	den := cfg.LinkRate - higherRate
	if den <= 0 {
		return 0, ErrUnstable
	}
	d := float64(numBits) / float64(den.BitsPerSecond())
	return secondsToDuration(d) + cfg.TTechno, nil
}

// muxTable is one multiplexer's bound for each 802.1p class of member:
// FCFS has a single bound for the whole group, priority one per class
// present. A member's bound is entry [its class] — exactly what
// muxBound(group, member, approach, cfg) returns, because neither closed
// form reads anything of the member beyond its class.
type muxTable struct {
	d   [traffic.NumPriorities]simtime.Duration
	err [traffic.NumPriorities]error
}

// table evaluates the closed forms for the summed group: FCFS once, or
// each priority class that has a member once.
func (s *classSums) table(approach Approach, cfg Config) muxTable {
	var t muxTable
	if approach == FCFS {
		b, r := s.total()
		d, err := fcfsBound(b, r, cfg)
		for q := range t.d {
			t.d[q], t.err[q] = d, err
		}
		return t
	}
	for q := traffic.P0; q < traffic.NumPriorities; q++ {
		if s.n[q] > 0 {
			t.d[q], t.err[q] = s.priorityBound(q, cfg)
		}
	}
	return t
}

// FCFSBoundNC computes the approach-1 bound through the generic network
// calculus: horizontal deviation of the aggregate token bucket against the
// link's rate-latency curve. It must agree with FCFSBound to within the ns
// rounding — the cross-check tests assert that.
func FCFSBoundNC(specs []FlowSpec, cfg Config) (simtime.Duration, error) {
	agg := netcalc.Zero()
	for _, f := range specs {
		agg = agg.Add(tokenBucketOf(f))
	}
	beta := netcalc.RateLatency(float64(cfg.LinkRate.BitsPerSecond()), cfg.TTechno.Seconds())
	d, err := netcalc.HorizontalDeviation(agg, beta)
	if err != nil {
		return 0, ErrUnstable
	}
	return secondsToDuration(d), nil
}

// PriorityBoundNC computes the approach-2 bound for class p through the
// generic pipeline: strict-priority residual service (higher classes as
// interference, largest lower frame as blocking), then horizontal
// deviation of the class-p aggregate, plus t_techno.
func PriorityBoundNC(specs []FlowSpec, p traffic.Priority, cfg Config) (simtime.Duration, error) {
	classes := ByPriority(specs)
	higher := netcalc.Zero()
	for q := traffic.P0; q < p; q++ {
		for _, f := range classes[q] {
			higher = higher.Add(tokenBucketOf(f))
		}
	}
	own := netcalc.Zero()
	for _, f := range classes[p] {
		own = own.Add(tokenBucketOf(f))
	}
	var lower []FlowSpec
	for q := p + 1; q < traffic.NumPriorities; q++ {
		lower = append(lower, classes[q]...)
	}
	beta := netcalc.Affine(0, float64(cfg.LinkRate.BitsPerSecond()))
	res := netcalc.ResidualStrictPriority(beta, higher, float64(MaxB(lower).Bits()))
	if len(classes[p]) == 0 {
		// No traffic in the class: the paper's formula still charges the
		// time the class could be starved (blocking plus higher-priority
		// bursts), which is exactly the residual service's latency term.
		return secondsToDuration(res.LatencyTerm()) + cfg.TTechno, nil
	}
	d, err := netcalc.HorizontalDeviation(own, res)
	if err != nil {
		return 0, ErrUnstable
	}
	return secondsToDuration(d) + cfg.TTechno, nil
}

// tokenBucketOf returns the γ_{rᵢ,bᵢ} arrival curve of a spec.
func tokenBucketOf(f FlowSpec) netcalc.Curve {
	return netcalc.TokenBucket(float64(f.B.Bits()), float64(f.R.BitsPerSecond()))
}

// BacklogBound returns the worst-case buffer occupancy (bits) of a
// multiplexer fed by specs — the dimensioning that prevents the frame loss
// the paper warns about ("messages can be lost if buffers overflow").
func BacklogBound(specs []FlowSpec, cfg Config) (simtime.Size, error) {
	return backlogBound(SumB(specs), SumR(specs), serviceCurve(cfg))
}

// serviceCurve returns the β_{C,T} rate-latency service of a multiplexer
// of capacity C = cfg.LinkRate behind relaying latency T = cfg.TTechno.
func serviceCurve(cfg Config) netcalc.Curve {
	return netcalc.RateLatency(float64(cfg.LinkRate.BitsPerSecond()), cfg.TTechno.Seconds())
}

// backlogBound is BacklogBound over the group's sums: the aggregate of
// token buckets is the one token bucket (Σbᵢ, Σrᵢ). It is the very curve
// the pointwise Add chain over the members builds, because adding two
// one-piece curves adds their bursts and slopes, and integer sums below
// 2⁵³ are exact in float64.
func backlogBound(sumB simtime.Size, sumR simtime.Rate, beta netcalc.Curve) (simtime.Size, error) {
	agg := netcalc.TokenBucket(float64(sumB.Bits()), float64(sumR.BitsPerSecond()))
	v, err := netcalc.VerticalDeviation(agg, beta)
	if err != nil {
		return 0, ErrUnstable
	}
	return simtime.Size(math.Ceil(v)), nil
}

// TransmissionFloor returns the smallest possible latency of one message of
// the spec through a multiplexer: its own serialization at C plus the
// relaying latency. Used as D_min in jitter bounds.
func TransmissionFloor(f FlowSpec, cfg Config) simtime.Duration {
	return simtime.TransmissionTime(f.B, cfg.LinkRate) + cfg.TTechno
}
