package analysis

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file composes per-plane tree bounds into the skew-aware bounds of
// a redundant (ARINC 664-style dual) network. The receiver's redundancy
// management delivers the FIRST copy of every frame, so for any surviving
// plane p the delivered copy is never later than plane p's copy:
//
//	delay ≤ phaseSkew_p + D_p
//
// where D_p is the tree-composed bound over plane p's own fabric (its
// rates scaled, its propagation skew folded into every link) and
// phaseSkew_p the plane's release offset. The sound composition is the
// minimum of that expression over surviving planes — the winning plane's
// skew penalty included. Two compositions are provided:
//
//   - RedundantEndToEnd: all declared planes in their configured state —
//     what the network guarantees while its redundancy is intact.
//   - DegradedEndToEnd: any ONE surviving plane additionally failed —
//     the availability bound certification cares about, since a dual
//     network's reason to exist is surviving exactly that event.
//
// Both assume every surviving plane carries its copy to the receiver
// (the same lossless-medium assumption behind every bound in this
// package). The integrity-checking acceptance window only rejects
// DUPLICATE copies, never the first, so the bounds are independent of
// the window size.

// Plane describes one redundant plane for the composition.
type Plane struct {
	// Tree is the plane's analysis topology, with the plane's rate scale
	// and propagation skew materialized (topology.Network.PlaneTree).
	Tree *Tree
	// PhaseSkew is the plane's release offset: its copy of every frame
	// enters the plane this much after the application release.
	PhaseSkew simtime.Duration
	// Failed marks a plane that carries no traffic.
	Failed bool
}

// RedundantEndToEnd bounds every connection over a redundant network with
// every declared plane in its configured state: per surviving plane the
// tree-composed end-to-end bound is computed, the plane's phase skew
// added, and the per-connection minimum taken (first copy wins). With
// identical zero-skew planes this reduces exactly to the single-plane
// tree bound. An over-subscribed (unstable) plane has an infinite bound
// — it simply never wins the minimum, exactly like a failed plane — so
// the composition errors only when NO surviving plane yields a finite
// bound (ErrUnstable then), or when no plane survives at all.
func RedundantEndToEnd(set *traffic.Set, approach Approach, cfg Config, planes []Plane) (*Result, error) {
	results, surviving, bounded, err := planeResults(set, approach, cfg, planes)
	if err != nil {
		return nil, err
	}
	if len(surviving) == 0 {
		return nil, fmt.Errorf("analysis: no surviving plane to bound")
	}
	if len(bounded) == 0 {
		return nil, fmt.Errorf("analysis: every surviving plane is over-subscribed: %w", ErrUnstable)
	}
	return composeFirstCopy(approach, cfg, planes, results, bounded), nil
}

// LossyRedundantEndToEnd bounds every connection over a redundant network
// whose medium may LOSE copies (a residual bit-error rate > 0): the
// delivered first copy is then whichever surviving plane's copy got
// through — possibly only the slowest — so the min-composition of
// RedundantEndToEnd is no longer sound. The loss-aware composition is the
// per-connection MAXIMUM of phase skew plus plane bound over surviving
// planes: whichever single plane delivers, its copy obeys its own plane's
// bound. On identical planes the maximum equals the minimum, so lossless
// intuition is preserved exactly where the planes are symmetric. Every
// surviving plane must be stable here — an over-subscribed plane may be
// the only one whose copy survives, and its bound is infinite — so any
// unstable surviving plane is ErrUnstable (unlike RedundantEndToEnd,
// where it just never wins the minimum).
func LossyRedundantEndToEnd(set *traffic.Set, approach Approach, cfg Config, planes []Plane) (*Result, error) {
	results, surviving, bounded, err := planeResults(set, approach, cfg, planes)
	if err != nil {
		return nil, err
	}
	if len(surviving) == 0 {
		return nil, fmt.Errorf("analysis: no surviving plane to bound")
	}
	if len(bounded) < len(surviving) {
		return nil, fmt.Errorf("analysis: a surviving plane is over-subscribed and loss may leave it the only carrier: %w", ErrUnstable)
	}
	return composeAnyCopy(approach, cfg, planes, results, bounded), nil
}

// DegradedEndToEnd bounds every connection with any ONE surviving plane
// additionally failed: for each candidate failure the first-copy bound
// over the remaining planes is composed, and the worst case over all
// candidates reported per connection. It requires at least two surviving
// planes — losing the only carrier leaves nothing to bound — and errors
// (ErrUnstable) when some single failure would leave only over-subscribed
// planes, whose bound is infinite.
func DegradedEndToEnd(set *traffic.Set, approach Approach, cfg Config, planes []Plane) (*Result, error) {
	results, surviving, bounded, err := planeResults(set, approach, cfg, planes)
	if err != nil {
		return nil, err
	}
	if len(surviving) < 2 {
		return nil, fmt.Errorf("analysis: degraded mode needs at least two surviving planes, have %d", len(surviving))
	}
	var worst *Result
	for _, drop := range surviving {
		rest := make([]int, 0, len(bounded))
		for _, p := range bounded {
			if p != drop {
				rest = append(rest, p)
			}
		}
		if len(rest) == 0 {
			return nil, fmt.Errorf("analysis: failing plane %d leaves only over-subscribed planes: %w", drop, ErrUnstable)
		}
		r := composeFirstCopy(approach, cfg, planes, results, rest)
		if worst == nil {
			worst = r
			continue
		}
		merged := &Result{Approach: approach, Cfg: cfg}
		for i := range r.Flows {
			pick := r.Flows[i]
			if worst.Flows[i].EndToEnd >= pick.EndToEnd {
				pick = worst.Flows[i]
			}
			merged.add(pick)
		}
		worst = merged
	}
	return worst, nil
}

// planeResults runs the tree analysis once per surviving plane. It
// returns the per-plane results (nil for failed or unstable planes), the
// surviving plane indices, and the subset of those with finite bounds —
// an over-subscribed plane still carries traffic, its bound is just +∞,
// which the caller handles instead of aborting the whole composition.
func planeResults(set *traffic.Set, approach Approach, cfg Config, planes []Plane) (results []*Result, surviving, bounded []int, err error) {
	if len(planes) == 0 {
		return nil, nil, nil, fmt.Errorf("analysis: no planes to compose")
	}
	results = make([]*Result, len(planes))
	// The inputs are checked once; a failure surfaces on the first
	// surviving plane, as a per-plane TreeEndToEnd would report it.
	inputErr := checkInputs(set, cfg)
	for p, pl := range planes {
		if pl.Failed {
			continue
		}
		surviving = append(surviving, p)
		var r *Result
		err := inputErr
		if err == nil {
			r, err = treeEndToEnd(set, approach, cfg, pl.Tree, defaultTable())
		}
		if err != nil {
			if errors.Is(err, ErrUnstable) {
				continue
			}
			return nil, nil, nil, fmt.Errorf("analysis: plane %d: %w", p, err)
		}
		results[p] = r
		bounded = append(bounded, p)
	}
	return results, surviving, bounded, nil
}

// composeFirstCopy takes the per-connection minimum of phase skew plus
// plane bound over the given planes. The winning plane contributes the
// stage split, its phase skew folded into SourceDelay (the skew is a
// release-side wait, so the columns still account for the total); the
// floor is the earliest any plane's copy can physically arrive.
func composeFirstCopy(approach Approach, cfg Config, planes []Plane, results []*Result, use []int) *Result {
	res := &Result{Approach: approach, Cfg: cfg}
	for i := range results[use[0]].Flows {
		var pb PathBound
		var floor simtime.Duration
		for k, p := range use {
			f := results[p].Flows[i]
			e2e := planes[p].PhaseSkew + f.EndToEnd
			fl := planes[p].PhaseSkew + f.Floor
			if k == 0 || e2e < pb.EndToEnd {
				pb = f
				pb.SourceDelay = planes[p].PhaseSkew + f.SourceDelay
				pb.EndToEnd = e2e
			}
			if k == 0 || fl < floor {
				floor = fl
			}
		}
		pb.Floor = floor
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(pb.Spec.Msg.Deadline)
		res.add(pb)
	}
	return res
}

// composeAnyCopy takes the per-connection maximum of phase skew plus
// plane bound over the given planes — the loss-aware dual of
// composeFirstCopy. The worst plane contributes the stage split (its
// phase skew folded into SourceDelay); the floor stays the minimum, since
// the best case is still the fastest plane delivering untouched.
func composeAnyCopy(approach Approach, cfg Config, planes []Plane, results []*Result, use []int) *Result {
	res := &Result{Approach: approach, Cfg: cfg}
	for i := range results[use[0]].Flows {
		var pb PathBound
		var floor simtime.Duration
		for k, p := range use {
			f := results[p].Flows[i]
			e2e := planes[p].PhaseSkew + f.EndToEnd
			fl := planes[p].PhaseSkew + f.Floor
			if k == 0 || e2e > pb.EndToEnd {
				pb = f
				pb.SourceDelay = planes[p].PhaseSkew + f.SourceDelay
				pb.EndToEnd = e2e
			}
			if k == 0 || fl < floor {
				floor = fl
			}
		}
		pb.Floor = floor
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(pb.Spec.Msg.Deadline)
		res.add(pb)
	}
	return res
}
