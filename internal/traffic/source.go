package traffic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/simtime"
)

// Instance is one released message instance — the unit that flows through
// shapers, multiplexers and switches in the simulators.
type Instance struct {
	// Msg is the connection this instance belongs to.
	Msg *Message
	// Index is the position of Msg in its Set's Messages order, so
	// consumers indexing per-connection state by dense integer avoid a
	// map lookup on every release.
	Index int
	// Seq numbers instances of one connection from 0.
	Seq int
	// Release is when the application handed the instance to the network
	// layer; response time is measured from here.
	Release simtime.Time
}

// String identifies the instance in traces, e.g. "nav/attitude#12".
func (in Instance) String() string { return fmt.Sprintf("%s#%d", in.Msg.Name, in.Seq) }

// SporadicMode selects how a sporadic source spaces its releases.
type SporadicMode int

const (
	// Greedy releases a sporadic instance at every minimal inter-arrival
	// boundary — the worst case the shaper is dimensioned for, used when
	// validating analytic bounds by simulation.
	Greedy SporadicMode = iota
	// RandomGaps spaces releases by the minimal inter-arrival plus a
	// random exponential slack, modelling event-driven operation.
	RandomGaps
	// Silent never releases — models a quiescent sporadic connection.
	Silent
)

// String returns the mode name.
func (m SporadicMode) String() string {
	switch m {
	case Greedy:
		return "greedy"
	case RandomGaps:
		return "random"
	case Silent:
		return "silent"
	default:
		return fmt.Sprintf("SporadicMode(%d)", int(m))
	}
}

// SourceConfig controls how a Set is turned into release processes.
type SourceConfig struct {
	// Mode is how sporadic connections behave.
	Mode SporadicMode
	// MeanSlack is the mean of the additional exponential gap in
	// RandomGaps mode (0 degenerates to Greedy).
	MeanSlack simtime.Duration
	// AlignPhases releases the first instance of every connection at t=0,
	// building the critical instant that worst-case analysis assumes.
	// When false, phases are drawn uniformly over each period.
	AlignPhases bool
}

// Emit delivers a released instance to the network entry point of the
// message's source station.
type Emit func(Instance)

// Start installs release processes for every message of the set on the
// simulator and returns a stop function that silences all of them.
//
// Periodic connections release strictly every Period. Sporadic ones follow
// cfg.Mode. Per the paper's model, a sporadic connection never releases
// more often than once per its minimal inter-arrival time.
func Start(sim *des.Simulator, set *Set, cfg SourceConfig, emit Emit) (stop func()) {
	if emit == nil {
		panic("traffic: nil emit")
	}
	var stops []func()
	for mi, m := range set.Messages {
		mi, m := mi, m
		phase := simtime.Duration(0)
		if !cfg.AlignPhases {
			phase = simtime.Duration(sim.RNG().Duration(int64(m.Period)))
		}
		seq := 0
		//rtlint:hotpath
		release := func() {
			emit(Instance{Msg: m, Index: mi, Seq: seq, Release: sim.Now()})
			seq++
		}
		switch {
		case m.Kind == Periodic:
			stops = append(stops, sim.Every(phase, m.Period, release))
		case cfg.Mode == Silent:
			// no process
		case cfg.Mode == Greedy:
			stops = append(stops, sim.Every(phase, m.Period, release))
		case cfg.Mode == RandomGaps:
			stops = append(stops, startRandomGaps(sim, m, phase, cfg.MeanSlack, release))
		default:
			panic(fmt.Sprintf("traffic: unknown sporadic mode %v", cfg.Mode))
		}
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// startRandomGaps schedules sporadic releases spaced by Period plus an
// exponential slack with the given mean: each occurrence releases, then
// draws its gap.
func startRandomGaps(sim *des.Simulator, m *Message, phase, meanSlack simtime.Duration, release func()) (stop func()) {
	//rtlint:hotpath
	return sim.Recur(phase, func() simtime.Duration {
		release()
		gap := m.Period
		if meanSlack > 0 {
			gap += simtime.Duration(sim.RNG().Exponential(float64(meanSlack)))
		}
		return gap
	})
}
