package analysis

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file pins the two latent bugs fixed in the trunk stage — the
// double muxBound evaluation per (flow, trunk edge) and the from*1000+to
// topological tie-break that collides at ≥1000 switches — plus the
// byte-identity of the group-level delay tables against the historical
// per-flow formulation.

// chainTree spreads the set's stations over a 4-switch chain 0-1-2-3, so
// flows cross up to three trunk multiplexers in sequence.
func chainTree(set *traffic.Set) *Tree {
	t := &Tree{Switches: 4, Links: [][2]int{{0, 1}, {1, 2}, {2, 3}}, StationSwitch: map[string]int{}}
	for i, s := range set.Stations() {
		t.StationSwitch[s] = i % 4
	}
	return t
}

// TestTreeEndToEndMatchesReference pins plan evaluation to the
// historical per-flow, double-evaluating formulation (the oracle
// ReferenceTreeEndToEnd): every PathBound, and every error text, must be
// byte-identical under both disciplines, at two link rates, with
// homogeneous, heterogeneous and starved per-link overrides, and with the
// plan table cold, warm and disabled.
func TestTreeEndToEndMatchesReference(t *testing.T) {
	set := traffic.RealCase()
	homo := chainTree(set)
	hetero := chainTree(set)
	hetero.TrunkRates = []simtime.Rate{100 * simtime.Mbps, 0, 25 * simtime.Mbps}
	hetero.TrunkProps = []simtime.Duration{simtime.Microsecond, 0, 3 * simtime.Microsecond}
	hetero.StationRates = map[string]simtime.Rate{set.Messages[0].Dest: 100 * simtime.Mbps}
	hetero.StationProps = map[string]simtime.Duration{set.Messages[0].Source: 2 * simtime.Microsecond}
	starved := chainTree(set)
	starved.TrunkRates = []simtime.Rate{0, simtime.Mbps / 4}

	stable := 0
	for _, tree := range []*Tree{homo, hetero, starved} {
		for _, rate := range []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps} {
			cfg := DefaultConfig()
			cfg.LinkRate = rate
			table := &planTable{limit: planTableCap}
			for _, approach := range []Approach{FCFS, Priority} {
				want, wantErr := ReferenceTreeEndToEnd(set, approach, cfg, tree)
				if wantErr == nil {
					stable++
				}
				for _, state := range []struct {
					name string
					t    *planTable
				}{{"cold", table}, {"warm", table}, {"disabled", nil}} {
					got, err := treeEndToEnd(set, approach, cfg, tree, state.t)
					if !sameOutcome(got, err, want, wantErr) {
						t.Errorf("%v at %v, %s table: plan outcome diverges from the reference (errors: %v; reference %v)",
							approach, rate, state.name, err, wantErr)
					}
				}
				got, err := TreeEndToEnd(set, approach, cfg, tree)
				if !sameOutcome(got, err, want, wantErr) {
					t.Errorf("%v at %v: TreeEndToEnd diverges from the reference (errors: %v; reference %v)", approach, rate, err, wantErr)
				}
			}
			if s := table.stats(); s.Misses != 1 || s.Hits != 3 {
				t.Errorf("at %v: %d plan misses and %d hits, want one compile reused 3 times", rate, s.Misses, s.Hits)
			}
		}
	}
	if stable < 8 || stable == 12 {
		t.Errorf("%d of 12 cells stable: the cases no longer cover both bounded and unstable outcomes", stable)
	}
}

// TestCompareDirEdgesBeyondPackedKeyCollisions exercises the exact pairs
// the old packed key from*1000+to could not tell apart.
func TestCompareDirEdgesBeyondPackedKeyCollisions(t *testing.T) {
	cases := []struct {
		a, b dirEdge
		want int
	}{
		{dirEdge{0, 1000}, dirEdge{1, 0}, -1},   // both packed to 1000
		{dirEdge{1, 2000}, dirEdge{3, 0}, -1},   // both packed to 3000
		{dirEdge{2, 500}, dirEdge{2, 1500}, -1}, // same from, ordered by to
		{dirEdge{7, 7}, dirEdge{7, 7}, 0},
	}
	for _, c := range cases {
		if got := compareDirEdges(c.a, c.b); sign(got) != c.want {
			t.Errorf("compareDirEdges(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if got := compareDirEdges(c.b, c.a); sign(got) != -c.want {
			t.Errorf("compareDirEdges(%v, %v) = %d, want sign %d", c.b, c.a, got, -c.want)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// TestTrunkTopoOrderWideTreeDeterministic drives the ordering over a
// 1200-leaf star — far beyond the old key's collision threshold — and
// asserts it is identical on every call and respects every crossed-before
// dependency. Under the old packed key, colliding ready edges were
// ordered by map iteration, so repeated calls disagreed.
func TestTrunkTopoOrderWideTreeDeterministic(t *testing.T) {
	const leaves = 1200
	paths := make([][]dirEdge, 0, leaves)
	for i := 1; i <= leaves; i++ {
		j := i%leaves + 1
		paths = append(paths, []dirEdge{{i, 0}, {0, j}})
	}
	first, err := trunkTopoOrder(paths)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * leaves; len(first) != want {
		t.Fatalf("order has %d edges, want %d", len(first), want)
	}
	pos := map[dirEdge]int{}
	for i, e := range first {
		pos[e] = i
	}
	for _, p := range paths {
		if pos[p[0]] >= pos[p[1]] {
			t.Fatalf("dependency violated: %v at %d not before %v at %d", p[0], pos[p[0]], p[1], pos[p[1]])
		}
	}
	for run := 0; run < 20; run++ {
		again, err := trunkTopoOrder(paths)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, first) {
			t.Fatalf("run %d: trunk topological order is not deterministic", run)
		}
	}
}

// wideStarScenario builds a 1101-switch star with two over-subscribed
// trunks whose old sort keys collide: (0,1000) and (1,0) both packed to
// 1000, and both are ready initially — so the historical code picked the
// erroring trunk by map iteration order.
func wideStarScenario() (*traffic.Set, *Tree) {
	const switches = 1101
	tree := &Tree{Switches: switches, StationSwitch: map[string]int{
		"c1": 0, "c2": 0, // center stations flooding trunk 0→1000
		"s1a": 1, "s1b": 1, // leaf-1 stations flooding trunk 1→0
		"dfar": 1000, "d2": 2,
	}}
	for i := 1; i < switches; i++ {
		tree.Links = append(tree.Links, [2]int{0, i})
	}
	// 1500 B every 2 ms ≥ 6 Mb/s on the wire: one flow fits a 10 Mb/s
	// edge, two sharing one trunk exceed it.
	mk := func(name, src, dst string) *traffic.Message {
		return &traffic.Message{
			Name: name, Source: src, Dest: dst, Kind: traffic.Periodic,
			Period: 2 * simtime.Millisecond, Payload: simtime.Bytes(1500),
			Deadline: 100 * simtime.Millisecond, Priority: traffic.P1,
		}
	}
	set := &traffic.Set{Messages: []*traffic.Message{
		mk("far-a", "c1", "dfar"),
		mk("far-b", "c2", "dfar"),
		mk("near-a", "s1a", "d2"),
		mk("near-b", "s1b", "d2"),
	}}
	return set, tree
}

// TestWideTreeUnstableTrunkErrorDeterministic asserts the observable
// symptom of the collision bug is gone: with two colliding unstable
// trunks both ready, the reported trunk is the lexicographically first
// one, on every call.
func TestWideTreeUnstableTrunkErrorDeterministic(t *testing.T) {
	set, tree := wideStarScenario()
	cfg := DefaultConfig()
	const want = "trunk 0→1000: analysis: aggregate rate exceeds link capacity"
	for run := 0; run < 10; run++ {
		_, err := treeEndToEnd(set, FCFS, cfg, tree, nil)
		if err == nil {
			t.Fatal("expected the over-subscribed wide star to be unstable")
		}
		if err.Error() != want {
			t.Fatalf("run %d: error %q, want %q", run, err, want)
		}
	}
}

// TestMuxDelaysMatchesMuxBound asserts the group-level delay tables
// built from per-class sums are byte-identical to the historical per-flow
// muxBound calls they replace, for every member, both disciplines, and a
// stable and an over-subscribed link.
func TestMuxDelaysMatchesMuxBound(t *testing.T) {
	set := traffic.RealCase()
	for _, rate := range []simtime.Rate{10 * simtime.Mbps, simtime.Mbps} {
		cfg := DefaultConfig()
		cfg.LinkRate = rate
		specs := Specs(set, cfg)
		var s classSums
		for _, f := range specs {
			s.add(f.B, f.R, f.Msg.Priority)
		}
		for _, approach := range []Approach{FCFS, Priority} {
			tbl := s.table(approach, cfg)
			for _, f := range specs {
				wantD, wantErr := muxBound(specs, f, approach, cfg)
				p := f.Msg.Priority
				if tbl.d[p] != wantD || !reflect.DeepEqual(tbl.err[p], wantErr) {
					t.Fatalf("%v at %v, %s: table (%v, %v) != muxBound (%v, %v)",
						approach, rate, f.Msg.Name, tbl.d[p], tbl.err[p], wantD, wantErr)
				}
			}
		}
	}
}

// TestEdgeBacklogsCacheStates asserts EdgeBacklogs is byte-identical to
// the historical algorithm (the oracle ReferenceEdgeBacklogs) with no
// plan table, a cold one and a warm one, and that the warm pass reuses
// the plan.
func TestEdgeBacklogsCacheStates(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	tree := chainTree(set)
	tree.TrunkRates = []simtime.Rate{0, simtime.Mbps / 10, 0}
	want, err := ReferenceEdgeBacklogs(set, cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	table := &planTable{limit: planTableCap}
	for _, state := range []struct {
		name string
		t    *planTable
	}{{"disabled", nil}, {"cold", table}, {"warm", table}} {
		got, err := edgeBacklogs(set, cfg, tree, state.t)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cfg != want.Cfg || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Fatalf("%s table: EdgeBacklogs diverges from the reference", state.name)
		}
	}
	if s := table.stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("warm EdgeBacklogs pass did not reuse the plan: %+v", s)
	}
	unstable := 0
	for _, e := range want.Edges {
		if e.Unstable {
			unstable++
		}
	}
	if unstable == 0 {
		t.Fatal("the starved trunk no longer makes any edge unstable")
	}
}
