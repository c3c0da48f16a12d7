// Package render holds the human-facing report encoders shared between
// the rtether CLI and the scenario service (internal/serve). Each report
// is one function writing to an io.Writer, parameterized exactly like the
// corresponding subcommand's flags, so `rtether analyze -config x.json`
// and `POST /v1/analyze` with the same scenario produce byte-identical
// bodies by construction — there is one encoder, not two that happen to
// agree. The byte-identity is pinned by a CLI-versus-HTTP test and a CI
// smoke diff.
package render

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Mark renders a soundness verdict the way every rtether table does.
func Mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// SourceRegime names the traffic-source regime of a simulation config.
func SourceRegime(cfg core.SimConfig) string {
	if cfg.AlignPhases && cfg.Mode == traffic.Greedy {
		return "critical-instant"
	}
	return "randomized"
}

// Analyze writes the per-connection bound tables under both models. With
// e2e the compositional end-to-end analysis composes the bounds over the
// scenario's architecture, pricing each hop at its own link rate;
// otherwise the single-hop paper-faithful model applies.
func Analyze(w io.Writer, s *core.Scenario, e2e bool) error {
	set := s.Set
	run := func(set *traffic.Set, a analysis.Approach, cfg analysis.Config) (*analysis.Result, error) {
		return analysis.SingleHop(set, a, cfg)
	}
	model := "single-hop (paper-faithful)"
	if e2e {
		run = func(set *traffic.Set, a analysis.Approach, cfg analysis.Config) (*analysis.Result, error) {
			return s.Analyze(a)
		}
		model = "end-to-end (compositional)"
		if s.Cfg != nil && s.Cfg.Network != nil {
			model = fmt.Sprintf("end-to-end (tree-composed over %q: %d switches, %d planes)",
				s.Net.Name, s.Net.Switches, s.Net.PlaneCount())
		}
	}
	fmt.Fprintf(w, "analysis model: %s\n\n", model)
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		res, err := run(set, approach, s.Analysis())
		if err != nil {
			return err
		}
		tbl := report.NewTable("connection", "class", "source delay", "port delay", "bound", "jitter", "deadline", "ok")
		for _, f := range res.Flows {
			tbl.AddRow(f.Spec.Msg.Name, f.Spec.Msg.Priority, f.SourceDelay, f.PortDelay,
				f.EndToEnd, f.Jitter, f.Spec.Msg.Deadline, Mark(f.Met))
		}
		fmt.Fprintf(w, "== %v: %d violations ==\n", approach, res.Violations)
		if _, err := tbl.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Backlog writes the complete per-switch memory budget of the scenario's
// architecture: every directed edge owns one queue — station uplink
// multiplexers, trunk output ports in both directions, destination output
// ports — and every one gets a backlog bound (core.EdgeBacklogs). Rows
// group under the switch owning the queue and the per-switch totals cover
// trunk ports too, so they are the switch's whole memory. With dimension
// the scenario JSON is emitted instead, its sim section carrying the
// derived per-port capacities (queue_capacities_bytes), ready to pipe
// into any other subcommand.
func Backlog(w io.Writer, s *core.Scenario, dimension bool) error {
	bl, err := s.Backlogs()
	if err != nil {
		return err
	}
	if dimension {
		// Encode a copy: the caller's scenario, and so its canonical
		// hash, must not change by being rendered.
		cfg := *s.Cfg
		var sim topology.SimJSON
		if cfg.Sim != nil {
			sim = *cfg.Sim
		}
		sim.QueueCapacitiesBytes = bl.Capacities()
		cfg.Sim = &sim
		return cfg.Save(w)
	}

	bound := func(e analysis.EdgeBacklog) string {
		if e.Unstable {
			return "unbounded"
		}
		return fmt.Sprintf("%d B", e.Bound.ByteCount())
	}
	fmt.Fprintln(w, "switch buffer dimensioning (prevents the overflow loss the paper warns about)")
	fmt.Fprintf(w, "architecture %s: %d switch(es), %d plane(s)\n",
		s.Net.Name, s.Net.Switches, s.Net.PlaneCount())
	plane0 := bl.Planes[0]
	tbl := report.NewTable("switch", "output port", "backlog bound", "connections")
	for sw := 0; sw < s.Net.Switches; sw++ {
		// Destination ports first (the historical rows), then the trunk
		// output ports that complete the switch's memory budget.
		for _, kind := range []analysis.EdgeKind{analysis.EdgeDest, analysis.EdgeTrunk} {
			for _, e := range plane0.Edges {
				if e.Kind != kind || e.Switch != sw {
					continue
				}
				port := e.To // destination ports keep the bare station name
				if e.Kind == analysis.EdgeTrunk {
					port = e.Key()
				}
				tbl.AddRow(fmt.Sprintf("sw%d", sw), port, bound(e), len(e.Flows))
			}
		}
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	for sw := 0; sw < s.Net.Switches; sw++ {
		total, edges, unstable := plane0.SwitchTotal(sw)
		if edges == 0 {
			continue
		}
		if unstable {
			fmt.Fprintf(w, "sw%d buffer total: unbounded (over-subscribed edge) over %d output port(s)\n", sw, edges)
			continue
		}
		fmt.Fprintf(w, "sw%d buffer total: %d B over %d output port(s), trunk ports included\n", sw, total.ByteCount(), edges)
	}

	fmt.Fprintln(w, "\nstation uplink dimensioning (source multiplexer queues):")
	up := report.NewTable("station", "uplink", "backlog bound", "connections")
	for _, e := range plane0.Edges {
		if e.Kind != analysis.EdgeUplink {
			continue
		}
		up.AddRow(e.From, e.Key(), bound(e), len(e.Flows))
	}
	if _, err := up.WriteTo(w); err != nil {
		return err
	}

	// Identical planes (every classic dual) share the table above; a
	// rate-scaled plane can diverge — only through stability, the bound
	// itself being rate-independent — and then each divergence is named.
	if s.Net.PlaneCount() > 1 {
		if bl.Identical() {
			fmt.Fprintf(w, "all %d planes price identically\n", s.Net.PlaneCount())
		} else {
			for p := 1; p < len(bl.Planes); p++ {
				for i, e := range bl.Planes[p].Edges {
					if o := plane0.Edges[i]; e.Unstable != o.Unstable || e.Bound != o.Bound {
						fmt.Fprintf(w, "plane n%d: %s %s (plane 0: %s)\n", p, e.Key(), bound(e), bound(o))
					}
				}
			}
		}
	}
	return nil
}

// Validate writes the cross-validation report: for both approaches, the
// tree-composed analytic bounds against opts.Reps simulation replications
// on RNG substreams of opts.Seed, plus the backlog half — observed queue
// high-water marks against the per-edge bounds. horizon applies unless
// horizonSet is false AND the scenario file pins its own; replicated runs
// randomize the sources unless the scenario pins the regime itself.
func Validate(w io.Writer, s *core.Scenario, opts core.SweepOptions, horizon simtime.Duration, horizonSet bool) error {
	// Backlog bounds are discipline-independent (vertical deviation of the
	// same token buckets), so one table serves both approaches below.
	backlogs, err := s.Backlogs()
	if err != nil {
		return err
	}
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		sc := s.WithApproach(approach)
		if horizonSet || s.Cfg == nil || s.Cfg.Sim == nil || s.Cfg.Sim.HorizonUs == 0 {
			sc.Sim.Horizon = horizon
		}
		// Replicated runs sample random phases/gaps, a single run checks
		// the deterministic critical instant — unless the scenario file
		// pins the source regime itself (mode or align_phases set
		// explicitly).
		pinnedSource := s.Cfg != nil && s.Cfg.Sim != nil &&
			(s.Cfg.Sim.Mode != "" || s.Cfg.Sim.AlignPhases != nil)
		if opts.Reps > 1 && !pinnedSource {
			sc.Sim.Mode = traffic.RandomGaps
			sc.Sim.MeanSlack = core.DefaultMeanSlack
			sc.Sim.AlignPhases = false
		}
		v, err := sc.Validate(opts)
		if err != nil {
			return err
		}
		tbl := report.NewTable("connection", "class", "observed max", "observed p99", "e2e bound", "paper bound", "sound")
		for _, r := range v.Rows {
			p99 := simtime.Duration(0)
			if r.Latencies.N() > 0 {
				p99 = r.Latencies.Quantile(0.99)
			}
			tbl.AddRow(r.Name, r.Priority, r.Observed, p99, r.Bound, r.PaperBound, Mark(r.Sound()))
		}
		bv := backlogs.CheckMarks(v.PortMaxBacklog)
		fmt.Fprintf(w, "== %v (%d replications, %s sources): all sound = %v, backlog sound = %v ==\n",
			approach, v.Reps, SourceRegime(sc.Sim), v.AllSound(), bv.Sound())
		if _, err := tbl.WriteTo(w); err != nil {
			return err
		}
		// The backlog half of the validation: observed queue high-water
		// marks (max over replications) against the per-edge bounds —
		// idle queues are elided, the header counts them all.
		bt := report.NewTable("queue", "observed max backlog", "backlog bound", "sound")
		for _, ke := range backlogs.Ordered() {
			observed, ok := v.PortMaxBacklog[ke.Key]
			if !ok || observed == 0 {
				continue
			}
			e := ke.Edge
			boundCol, sound := fmt.Sprintf("%d B", e.Bound.ByteCount()), observed <= e.Bound
			if e.Unstable {
				boundCol, sound = "unbounded", true
			}
			bt.AddRow(ke.Key, fmt.Sprintf("%d B", observed.ByteCount()), boundCol, Mark(sound))
		}
		fmt.Fprintf(w, "backlog (%d queues checked, %d over bound):\n", bv.Ports, bv.Unsound)
		if _, err := bt.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
