package scenariogen

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netcalc"
	"repro/internal/selftest"
	"repro/internal/topology"
)

// Verdict is the soundness record of one checked scenario. Violations is
// the invariant ledger: an empty list means the scenario survived every
// oracle — canonical round-trip, latency bounds, backlog bounds, counter
// conservation, byte-identity of plan evaluation with the reference
// analyses, and (when requested and eligible) byte-identity with the
// reference simulator.
type Verdict struct {
	// Name and Hash identify the scenario (core.CanonicalConfigHash).
	Name string
	Hash string
	// Flows is the number of bound connections.
	Flows int
	// Unstable records that the analysis declined to bound the scenario
	// (ErrUnstable: over-subscribed fabric); the latency comparison is
	// then vacuous and skipped, the remaining invariants still run.
	Unstable bool
	// WorstFlow and WorstRatio locate the tightest latency margin:
	// max over flows of observed/bound (0 when unstable or nothing
	// delivered). A ratio above 1 is a soundness violation.
	WorstFlow  string
	WorstRatio float64
	// Backlog is the observed-versus-bound verdict over every queue.
	Backlog core.BacklogVerdict
	// Simulation counters, for corpus-interest triage.
	Delivered, Dropped, Corrupted, Redundant, Discarded int
	// Violations lists every broken invariant, deterministically ordered.
	Violations []string
}

// Sound reports whether every invariant held.
func (v *Verdict) Sound() bool { return len(v.Violations) == 0 }

func (v *Verdict) violate(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// Check drives one scenario through every pipeline and verdicts it:
// the config must round-trip byte-identically through its canonical
// form, the analysis must either bound it or flag it unstable, the
// simulation must run panic-free, every observed latency must respect
// its bound (the loss-aware bound on lossy redundant networks), every
// observed queue high-water mark must respect its backlog bound, and the
// redundancy counters must conserve copies. A returned error means the
// scenario could not be exercised at all (it does not bind); a Verdict
// with Violations means an invariant broke — the fuzzer's actual prey.
func Check(cfg *topology.Config) (*Verdict, error) { return check(cfg, false) }

// CheckStrict is Check plus the reference-simulator cross-check: on
// scenarios the oracle models (clean medium), the production simulator's
// result must match the naive string-keyed oracle byte for byte. The
// oracle is orders of magnitude slower, so callers sample which
// scenarios to hold to it.
func CheckStrict(cfg *topology.Config) (*Verdict, error) { return check(cfg, true) }

func check(cfg *topology.Config, oracle bool) (*Verdict, error) {
	v := &Verdict{Name: cfg.Name}

	// Canonical identity: the config must survive Save → Load → Save
	// byte-identically, and hash stably.
	var first bytes.Buffer
	if err := cfg.Save(&first); err != nil {
		return nil, fmt.Errorf("scenariogen: save: %w", err)
	}
	reloaded, err := topology.Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("scenariogen: canonical form rejected: %w", err)
	}
	var second bytes.Buffer
	if err := reloaded.Save(&second); err != nil {
		return nil, fmt.Errorf("scenariogen: re-save: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		v.violate("canonical round-trip not byte-identical")
	}
	if v.Hash, err = core.CanonicalConfigHash(cfg); err != nil {
		return nil, fmt.Errorf("scenariogen: hash: %w", err)
	}
	if h2, err := core.CanonicalConfigHash(reloaded); err != nil || h2 != v.Hash {
		v.violate("canonical hash not stable under reload: %s != %s", v.Hash, h2)
	}

	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenariogen: bind: %w", err)
	}

	bounds, err := s.Analyze(s.Sim.Approach)
	switch {
	case errors.Is(err, analysis.ErrUnstable):
		v.Unstable = true
	case err != nil:
		return nil, fmt.Errorf("scenariogen: analyze: %w", err)
	default:
		v.Flows = len(bounds.Flows)
	}

	backs, err := s.Backlogs()
	if err != nil {
		return nil, fmt.Errorf("scenariogen: backlogs: %w", err)
	}

	verifyPlanOracle(v, s, backs)

	sim, err := s.Simulate()
	if err != nil {
		return nil, fmt.Errorf("scenariogen: simulate: %w", err)
	}

	// Latency soundness: every delivered instance at or under its bound.
	if !v.Unstable {
		for _, pb := range bounds.Flows {
			fs := sim.Flows[pb.Spec.Msg.Name]
			observed := fs.Latency.Max()
			if observed > pb.EndToEnd {
				v.violate("flow %s: observed %v exceeds bound %v",
					pb.Spec.Msg.Name, observed, pb.EndToEnd)
			}
			if pb.EndToEnd > 0 && observed > 0 {
				if r := float64(observed) / float64(pb.EndToEnd); r > v.WorstRatio {
					v.WorstRatio, v.WorstFlow = r, pb.Spec.Msg.Name
				}
			}
		}
	}

	// Backlog soundness: every queue's high-water mark under its bound.
	v.Backlog = backs.Check([]*core.SimResult{sim})
	if !v.Backlog.Sound() {
		v.violate("backlog: %d of %d queues exceeded their bound (worst %s: %v > %v)",
			v.Backlog.Unsound, v.Backlog.Ports, v.Backlog.WorstKey, v.Backlog.WorstObserved, v.Backlog.WorstBound)
	}

	// Counter conservation on redundant networks: every copy that reached
	// a receiver is a unique delivery, a healthy redundant duplicate, or
	// an integrity discard — loss and drops remove copies before arrival,
	// never after.
	v.Delivered, v.Dropped, v.Corrupted = sim.TotalDelivered(), sim.Dropped, sim.Corrupted
	v.Redundant, v.Discarded = sim.Redundant, sim.Discarded
	if len(sim.PlaneDelivered) > 0 {
		arrived := 0
		for _, n := range sim.PlaneDelivered {
			arrived += n
		}
		if want := v.Delivered + v.Redundant + v.Discarded; arrived != want {
			v.violate("copy conservation broken: %d arrived, %d accounted", arrived, want)
		}
	}

	// Reference-simulator cross-check, where the oracle's model applies.
	if oracle && s.Sim.BER == 0 {
		ref, err := selftest.Oracle(s.Set, s.Sim, s.Net)
		if err != nil {
			return nil, fmt.Errorf("scenariogen: oracle: %w", err)
		}
		if got, want := selftest.Render(sim), selftest.Render(ref); got != want {
			v.violate("production simulator diverged from the reference oracle")
		}
	}
	return v, nil
}

// equivMu serializes the global curve-memo toggle: concurrent oracle
// checks flipping it independently could restore a stale setting.
var equivMu sync.Mutex

// verifyPlanOracle recomputes the scenario's analyses with the historical
// oracles (analysis.ReferenceTreeEndToEnd and ReferenceEdgeBacklogs, with
// the netcalc curve memo disabled) and verdicts any divergence from plan
// evaluation: the tree bounds of the network's own tree and of every
// plane — the inputs of every composition Analyze builds — and the
// per-plane backlog tables check computed. Outcomes must agree exactly:
// equal results, or equal error texts (an unstable network is unstable
// under both).
func verifyPlanOracle(v *Verdict, s *core.Scenario, backs *core.NetworkBacklogs) {
	cfg := s.Analysis()
	trees := []*analysis.Tree{s.Net.Tree()}
	for p := 0; p < s.Net.PlaneCount(); p++ {
		trees = append(trees, s.Net.PlaneTree(p, cfg.LinkRate))
	}
	type outcome struct {
		res *analysis.Result
		err error
	}
	plans := make([]outcome, len(trees))
	for i, tree := range trees {
		plans[i].res, plans[i].err = analysis.TreeEndToEnd(s.Set, s.Sim.Approach, cfg, tree)
	}

	equivMu.Lock()
	defer equivMu.Unlock()
	prevMemo := netcalc.SetMemoEnabled(false)
	defer netcalc.SetMemoEnabled(prevMemo)

	for i, tree := range trees {
		want, err := analysis.ReferenceTreeEndToEnd(s.Set, s.Sim.Approach, cfg, tree)
		got := plans[i]
		switch {
		case got.err != nil || err != nil:
			if got.err == nil || err == nil || got.err.Error() != err.Error() {
				v.violate("plan oracle: tree %d: plan analysis error %v, reference error %v", i, got.err, err)
			}
		case !reflect.DeepEqual(got.res, want):
			v.violate("plan oracle: tree %d: bounds diverge between plan and reference analysis", i)
		}
	}
	if len(backs.Planes) != s.Net.PlaneCount() {
		v.violate("plan oracle: %d backlog planes for %d network planes", len(backs.Planes), s.Net.PlaneCount())
		return
	}
	for p, plane := range backs.Planes {
		raw, err := analysis.ReferenceEdgeBacklogs(s.Set, cfg, trees[p+1])
		if err != nil {
			v.violate("plan oracle: plane %d: reference backlogs failed: %v", p, err)
			continue
		}
		// Compare Cfg and Edges, not the whole struct: EdgeBacklogResult
		// carries a lazily built lookup index that depends on ByKey call
		// history, not on the bounds.
		if plane.Cfg != raw.Cfg || !reflect.DeepEqual(plane.Edges, raw.Edges) {
			v.violate("plan oracle: plane %d backlog bounds diverge between plan and reference analysis", p)
		}
	}
}
