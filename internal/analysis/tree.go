package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file generalizes the end-to-end analysis from one switch (EndToEnd)
// and two (TwoSwitchEndToEnd) to an arbitrary tree of switches — the shape
// avionics backbones take when a single switch cannot reach every
// equipment bay. A connection crosses:
//
//	source uplink → one trunk multiplexer per switch-to-switch edge on
//	its (unique) tree path → the destination output port
//
// Soundness of the composition relies on a structural property of trees:
// the "crossed-before" relation on *directed* trunk edges is acyclic
// (every flow crossing edge u→v has its source on u's side of the cut, so
// any edge some flow crosses before u→v lies on u's side and no flow can
// cross it after u→v). Directed edges are therefore processed in
// topological order, each flow's token bucket inflated by the bounds of
// its already-processed upstream stages.

// Tree describes the switch topology.
type Tree struct {
	// Switches is the number of switches, identified 0..Switches-1.
	Switches int
	// Links are the undirected switch-to-switch edges; a valid tree has
	// exactly Switches−1 of them, connected.
	Links [][2]int
	// StationSwitch maps every station to its switch.
	StationSwitch map[string]int

	// TrunkRates optionally overrides the capacity of individual trunks:
	// TrunkRates[i] is the rate of Links[i], 0 meaning Config.LinkRate.
	// Nil (or shorter than Links) leaves the remaining trunks at the
	// default — the homogeneous network of the paper.
	TrunkRates []simtime.Rate
	// TrunkProps holds per-trunk propagation delays (TrunkProps[i] for
	// Links[i]); propagation is a constant shift, so it adds to the bound
	// and the floor without inflating any arrival curve.
	TrunkProps []simtime.Duration
	// StationRates optionally overrides the full-duplex access-link rate
	// of individual stations (uplink and switch-side output port alike).
	StationRates map[string]simtime.Rate
	// StationProps holds per-station access-link propagation delays.
	StationProps map[string]simtime.Duration
}

// TrunkRate returns the capacity of trunk i, falling back to def.
func (t *Tree) TrunkRate(i int, def simtime.Rate) simtime.Rate {
	if i < len(t.TrunkRates) && t.TrunkRates[i] > 0 {
		return t.TrunkRates[i]
	}
	return def
}

// TrunkProp returns the propagation delay of trunk i (0 if unset).
func (t *Tree) TrunkProp(i int) simtime.Duration {
	if i < len(t.TrunkProps) {
		return t.TrunkProps[i]
	}
	return 0
}

// StationRate returns the access-link rate of a station, falling back to
// def.
func (t *Tree) StationRate(name string, def simtime.Rate) simtime.Rate {
	if r, ok := t.StationRates[name]; ok && r > 0 {
		return r
	}
	return def
}

// StationProp returns the access-link propagation delay of a station.
func (t *Tree) StationProp(name string) simtime.Duration {
	return t.StationProps[name]
}

// Heterogeneous reports whether any per-link override is set.
func (t *Tree) Heterogeneous() bool {
	for _, r := range t.TrunkRates {
		if r > 0 {
			return true
		}
	}
	for _, p := range t.TrunkProps {
		if p > 0 {
			return true
		}
	}
	return len(t.StationRates) > 0 || len(t.StationProps) > 0
}

// SingleSwitchTree returns the degenerate one-switch topology for a
// station list (every station on switch 0).
func SingleSwitchTree(stations []string) *Tree {
	t := &Tree{Switches: 1, StationSwitch: map[string]int{}}
	for _, s := range stations {
		t.StationSwitch[s] = 0
	}
	return t
}

// Validate checks tree structure and station coverage.
func (t *Tree) Validate(stations []string) error {
	if t.Switches < 1 {
		return fmt.Errorf("analysis: tree with %d switches", t.Switches)
	}
	if len(t.Links) != t.Switches-1 {
		return fmt.Errorf("analysis: %d links for %d switches (want %d)", len(t.Links), t.Switches, t.Switches-1)
	}
	// Connectivity: union the links' endpoints, then every switch must
	// share switch 0's component.
	comp := make([]int, t.Switches)
	for i := range comp {
		comp[i] = i
	}
	root := func(i int) int {
		for comp[i] != i {
			comp[i] = comp[comp[i]]
			i = comp[i]
		}
		return i
	}
	for _, l := range t.Links {
		a, b := l[0], l[1]
		if a < 0 || a >= t.Switches || b < 0 || b >= t.Switches || a == b {
			return fmt.Errorf("analysis: invalid link %v", l)
		}
		comp[root(a)] = root(b)
	}
	for i := range comp {
		if root(i) != root(0) {
			return fmt.Errorf("analysis: switch %d unreachable", i)
		}
	}
	for _, s := range stations {
		sw, ok := t.StationSwitch[s]
		if !ok {
			return fmt.Errorf("analysis: station %q not placed on a switch", s)
		}
		if sw < 0 || sw >= t.Switches {
			return fmt.Errorf("analysis: station %q on invalid switch %d", s, sw)
		}
	}
	// Switches are named "sw<id>" in reports and directed-edge keys
	// ("nav->sw0", "sw0->sw1"); a station sharing that namespace would
	// collide with a switch in every key-addressed table (backlog bounds,
	// observed marks, queue capacities), so it is rejected up front.
	if s, ok := firstKey(t.StationSwitch, func(s string, _ int) bool { return isSwitchName(s) }); ok {
		return fmt.Errorf("analysis: station name %q collides with the switch namespace (sw<number>)", s)
	}
	if len(t.TrunkRates) > len(t.Links) {
		return fmt.Errorf("analysis: %d trunk rates for %d links", len(t.TrunkRates), len(t.Links))
	}
	for i, r := range t.TrunkRates {
		if r < 0 {
			return fmt.Errorf("analysis: negative rate %v on trunk %v", r, t.Links[i])
		}
	}
	if len(t.TrunkProps) > len(t.Links) {
		return fmt.Errorf("analysis: %d trunk propagation delays for %d links", len(t.TrunkProps), len(t.Links))
	}
	for i, p := range t.TrunkProps {
		if p < 0 {
			return fmt.Errorf("analysis: negative propagation delay %v on trunk %v", p, t.Links[i])
		}
	}
	if s, ok := firstKey(t.StationRates, func(s string, r simtime.Rate) bool { return !t.placed(s) || r < 0 }); ok {
		if !t.placed(s) {
			return fmt.Errorf("analysis: rate override for unplaced station %q", s)
		}
		return fmt.Errorf("analysis: negative rate %v for station %q", t.StationRates[s], s)
	}
	if s, ok := firstKey(t.StationProps, func(s string, p simtime.Duration) bool { return !t.placed(s) || p < 0 }); ok {
		if !t.placed(s) {
			return fmt.Errorf("analysis: propagation override for unplaced station %q", s)
		}
		return fmt.Errorf("analysis: negative propagation delay %v for station %q", t.StationProps[s], s)
	}
	return nil
}

// placed reports whether a station sits on some switch.
func (t *Tree) placed(s string) bool {
	_, ok := t.StationSwitch[s]
	return ok
}

// firstKey returns the smallest key of m whose entry is bad — the entry a
// scan in sorted key order would stop at — without sorting the keys.
func firstKey[V any](m map[string]V, bad func(string, V) bool) (string, bool) {
	first, found := "", false
	//rtlint:unordered argmin over a total order on the keys
	for k, v := range m {
		if bad(k, v) && (!found || k < first) {
			first, found = k, true
		}
	}
	return first, found
}

// isSwitchName reports whether a name lies in the reserved "sw<number>"
// switch namespace.
func isSwitchName(s string) bool {
	if len(s) < 3 || s[:2] != "sw" {
		return false
	}
	for _, c := range s[2:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// adjacency returns the adjacency lists.
func (t *Tree) adjacency() [][]int {
	adj := make([][]int, t.Switches)
	for _, l := range t.Links {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	return adj
}

// SwitchPath returns the switch sequence from the switch of station a to
// the switch of station b (inclusive; length 1 if co-located).
func (t *Tree) SwitchPath(a, b string) ([]int, error) {
	sa, ok := t.StationSwitch[a]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown station %q", a)
	}
	sb, ok := t.StationSwitch[b]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown station %q", b)
	}
	if sa == sb {
		return []int{sa}, nil
	}
	// BFS from sa recording parents.
	adj := t.adjacency()
	parent := make([]int, t.Switches)
	for i := range parent {
		parent[i] = -1
	}
	parent[sa] = sa
	queue := []int{sa}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == sb {
			break
		}
		for _, v := range adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if parent[sb] == -1 {
		return nil, fmt.Errorf("analysis: no path between switches %d and %d", sa, sb)
	}
	var rev []int
	for v := sb; v != sa; v = parent[v] {
		rev = append(rev, v)
	}
	rev = append(rev, sa)
	path := make([]int, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, nil
}

// dirEdge is a directed trunk edge.
type dirEdge struct{ from, to int }

// compareDirEdges orders directed edges lexicographically by (from, to) —
// the deterministic tie-break of the trunk topological order. (An earlier
// revision sorted on the packed key from*1000+to, which collides once a
// tree reaches 1000 switches and silently made the processing order
// depend on map iteration order.)
func compareDirEdges(a, b dirEdge) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.to, b.to)
}

// trunkTopoOrder returns the directed trunk edges crossed by the flows in
// topological order under "crossed earlier by some flow" (Kahn's
// algorithm over the dependency multigraph), ties broken lexicographically
// by (from, to). The order is a pure function of the paths: deterministic
// across calls and independent of map iteration order.
func trunkTopoOrder(paths [][]dirEdge) ([]dirEdge, error) {
	deps := map[dirEdge]map[dirEdge]bool{} // e2 depends on e1 (e1 first)
	indeg := map[dirEdge]int{}
	for _, p := range paths {
		for h, e := range p {
			if _, ok := indeg[e]; !ok {
				indeg[e] = 0
			}
			if h > 0 {
				prev := p[h-1]
				if deps[prev] == nil {
					deps[prev] = map[dirEdge]bool{}
				}
				if !deps[prev][e] {
					deps[prev][e] = true
					indeg[e]++
				}
			}
		}
	}
	var order []dirEdge
	var ready []dirEdge
	//rtlint:sorted-after
	for e, d := range indeg {
		if d == 0 {
			ready = append(ready, e)
		}
	}
	slices.SortFunc(ready, compareDirEdges)
	for len(ready) > 0 {
		e := ready[0]
		ready = ready[1:]
		order = append(order, e)
		//rtlint:sorted-after
		for next := range deps[e] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
		slices.SortFunc(ready, compareDirEdges)
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("analysis: cyclic trunk dependencies — topology is not a tree")
	}
	return order, nil
}

// TreeEndToEnd bounds every connection over the tree topology. The
// structure of (set, tree) is compiled into a Plan once and reused
// through the process-wide plan table.
func TreeEndToEnd(set *traffic.Set, approach Approach, cfg Config, tree *Tree) (*Result, error) {
	if err := checkInputs(set, cfg); err != nil {
		return nil, err
	}
	return treeEndToEnd(set, approach, cfg, tree, defaultTable())
}

// checkInputs validates the configuration and the workload — the checks
// every public analysis runs once per call, however many planes it
// prices.
func checkInputs(set *traffic.Set, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return set.Validate()
}

// treeEndToEnd is TreeEndToEnd for inputs that passed checkInputs, with
// plans from table t (nil compiles one for the call and keeps none).
func treeEndToEnd(set *traffic.Set, approach Approach, cfg Config, tree *Tree, t *planTable) (*Result, error) {
	if tree == nil {
		return nil, errNilTree
	}
	p, err := t.plan(set, tree)
	if err != nil {
		return nil, err
	}
	return p.endToEnd(set, approach, cfg, tree)
}

var errNilTree = errors.New("analysis: nil tree")
