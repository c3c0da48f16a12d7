package analysis

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/netcalc"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// TestPlanSelfTest runs the startup self-test: plan evaluation against
// the oracles on its fixed random cells.
func TestPlanSelfTest(t *testing.T) {
	if err := SelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanEmptyWorkload: a workload with no connections evaluates to
// exactly what the oracles return (no flows, and every trunk priced
// empty) on a single switch and on a chain.
func TestPlanEmptyWorkload(t *testing.T) {
	set := &traffic.Set{}
	chain := &Tree{Switches: 3, Links: [][2]int{{0, 1}, {1, 2}}}
	for _, tree := range []*Tree{SingleSwitchTree(nil), chain} {
		if err := selfTestCell(set, Priority, DefaultConfig(), tree, &planTable{limit: planTableCap}); err != nil {
			t.Errorf("%d switches: %v", tree.Switches, err)
		}
	}
}

// TestPlanReusedOnlyForSameStructure asserts the plan table keys on
// structure alone: new numbers (payloads, rates, overrides) reuse the
// plan, while moving one station or rerouting one flow compiles anew.
func TestPlanReusedOnlyForSameStructure(t *testing.T) {
	set := traffic.RealCase()
	tree := chainTree(set)
	cfg := DefaultConfig()
	table := &planTable{limit: planTableCap}
	mustPlan := func(set *traffic.Set, tree *Tree) *Plan {
		t.Helper()
		p, err := table.plan(set, tree)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := mustPlan(set, tree)

	heavier := traffic.RealCase()
	heavier.Messages[0].Payload *= 2
	faster := chainTree(set)
	faster.TrunkRates = []simtime.Rate{100 * simtime.Mbps}
	if mustPlan(heavier, faster) != first {
		t.Error("new numbers over the same structure compiled a new plan")
	}
	if _, err := treeEndToEnd(heavier, Priority, cfg, faster, table); err != nil {
		t.Fatal(err)
	}

	moved := chainTree(set)
	moved.StationSwitch[set.Messages[0].Source] = (moved.StationSwitch[set.Messages[0].Source] + 1) % 4
	rerouted := traffic.RealCase()
	m0 := rerouted.Messages[0]
	for _, m := range rerouted.Messages {
		if m.Dest != m0.Dest && m.Dest != m0.Source {
			m0.Dest = m.Dest
			break
		}
	}
	if m0.Dest == set.Messages[0].Dest {
		t.Fatal("test setup: found no other destination")
	}
	for name, c := range map[string]struct {
		set  *traffic.Set
		tree *Tree
	}{"moved station": {set, moved}, "rerouted flow": {rerouted, tree}} {
		if mustPlan(c.set, c.tree) == first {
			t.Errorf("%s: reused the plan of a different structure", name)
		}
	}
	if s := table.stats(); s.Misses != 3 || s.Hits != 2 {
		t.Errorf("stats %+v, want 3 compiles and 2 reuses", s)
	}
}

// TestPlanTableBound asserts the plan table never holds more than its
// fixed bound, that a colliding key replaces its entry, and that the
// size counters follow the plans held.
func TestPlanTableBound(t *testing.T) {
	const limit = 4
	table := &planTable{limit: limit}
	for n := 0; n < 3*limit; n++ {
		set := &traffic.Set{}
		for i := 0; i <= n; i++ {
			set.Messages = append(set.Messages, &traffic.Message{
				Name: fmt.Sprintf("m%d", i), Source: "a", Dest: "b", Kind: traffic.Periodic,
				Period: 20 * simtime.Millisecond, Payload: simtime.Bytes(100),
				Deadline: 20 * simtime.Millisecond, Priority: traffic.P1,
			})
		}
		if _, err := edgeBacklogs(set, DefaultConfig(), SingleSwitchTree(set.Stations()), table); err != nil {
			t.Fatal(err)
		}
		s := table.stats()
		if s.PathEntries > limit {
			t.Fatalf("after %d distinct structures the table holds %d plans, bound %d", n+1, s.PathEntries, limit)
		}
		// One switch, two stations: 2 groups and 4 directed edges a plan.
		if s.MuxEntries != 2*s.PathEntries || s.BacklogEntries != 4*s.PathEntries {
			t.Fatalf("size counters %+v do not follow the %d plans held", s, s.PathEntries)
		}
	}
	if got := table.stats().Misses; got != 3*limit {
		t.Fatalf("%d compiles for %d distinct structures", got, 3*limit)
	}
	table.reset()
	set := traffic.RealCase()
	a, err := compilePlan(set, chainTree(set), set.Stations())
	if err != nil {
		t.Fatal(err)
	}
	b, err := compilePlan(set, SingleSwitchTree(set.Stations()), set.Stations())
	if err != nil {
		t.Fatal(err)
	}
	table.store(7, a)
	table.store(7, b)
	if s := table.stats(); s.PathEntries != 1 || s.MuxEntries != b.groups() || s.BacklogEntries != b.edges() {
		t.Fatalf("a colliding store left %+v, want only the replacement's sizes", s)
	}
}

// TestBacklogBoundMatchesAddChain is the property behind BacklogBound's
// single token bucket: over empty, single-flow and seeded random flow
// lists, with and without the curve memo, and at the Σr = C and
// Σr = C + 1 stability boundaries, it returns exactly what the
// historical flow-by-flow Add chain returns.
func TestBacklogBoundMatchesAddChain(t *testing.T) {
	msg := &traffic.Message{Name: "f", Priority: traffic.P1}
	flow := func(b simtime.Size, r simtime.Rate) FlowSpec { return FlowSpec{Msg: msg, B: b, R: r} }
	lists := [][]FlowSpec{nil, {flow(12_336, 616_800)}}
	rng := des.Stream(20051024, 0)
	for n := 0; n < 200; n++ {
		specs := make([]FlowSpec, rng.Intn(40))
		for i := range specs {
			specs[i] = flow(simtime.Size(64+rng.Intn(1_000_000)), simtime.Rate(1+rng.Intn(50_000_000)))
		}
		lists = append(lists, specs)
	}
	var configs []Config
	for _, rate := range []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps} {
		for _, tt := range []simtime.Duration{0, 140 * simtime.Microsecond} {
			configs = append(configs, Config{LinkRate: rate, TTechno: tt})
		}
	}
	check := func(specs []FlowSpec, cfg Config) {
		t.Helper()
		got, gotErr := BacklogBound(specs, cfg)
		want, wantErr := referenceBacklogBound(specs, cfg)
		if got != want || !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%d flows, Σr %v on %v: (%v, %v), Add chain (%v, %v)",
				len(specs), SumR(specs), cfg.LinkRate, got, gotErr, want, wantErr)
		}
	}
	for _, memo := range []bool{true, false} {
		prev := netcalc.SetMemoEnabled(memo)
		for _, specs := range lists {
			for _, cfg := range configs {
				check(specs, cfg)
				// Top the list up to Σr = C, then one bit/s beyond.
				if rest := cfg.LinkRate - SumR(specs); rest > 0 {
					edge := append(append([]FlowSpec(nil), specs...), flow(1_000, rest))
					check(edge, cfg)
					edge[len(edge)-1].R++
					check(edge, cfg)
				}
			}
		}
		netcalc.SetMemoEnabled(prev)
	}
}
