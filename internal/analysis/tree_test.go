package analysis

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// heteroTree builds a two-switch split of the real case with overridable
// trunk rate/propagation.
func heteroTree(set *traffic.Set) *Tree {
	t := &Tree{Switches: 2, Links: [][2]int{{0, 1}}, StationSwitch: map[string]int{}}
	for i, s := range set.Stations() {
		t.StationSwitch[s] = i % 2
	}
	return t
}

func TestTreeHeteroFasterTrunkTightensBounds(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	base := heteroTree(set)
	fast := heteroTree(set)
	fast.TrunkRates = []simtime.Rate{100 * simtime.Mbps}

	for _, approach := range []Approach{FCFS, Priority} {
		slow, err := TreeEndToEnd(set, approach, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		quick, err := TreeEndToEnd(set, approach, cfg, fast)
		if err != nil {
			t.Fatal(err)
		}
		tighter := false
		for i := range slow.Flows {
			if quick.Flows[i].EndToEnd > slow.Flows[i].EndToEnd {
				t.Errorf("%v %s: faster trunk loosened bound %v → %v", approach,
					slow.Flows[i].Spec.Msg.Name, slow.Flows[i].EndToEnd, quick.Flows[i].EndToEnd)
			}
			if quick.Flows[i].EndToEnd < slow.Flows[i].EndToEnd {
				tighter = true
			}
			if quick.Flows[i].Floor > quick.Flows[i].EndToEnd {
				t.Errorf("%v %s: floor %v above bound %v", approach,
					quick.Flows[i].Spec.Msg.Name, quick.Flows[i].Floor, quick.Flows[i].EndToEnd)
			}
		}
		if !tighter {
			t.Errorf("%v: faster trunk tightened no bound", approach)
		}
	}
}

func TestTreeHeteroPropagationIsAdditive(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	base := heteroTree(set)
	prop := heteroTree(set)
	const d = 700 * simtime.Nanosecond
	prop.TrunkProps = []simtime.Duration{d}

	a, err := TreeEndToEnd(set, Priority, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TreeEndToEnd(set, Priority, cfg, prop)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		crosses := base.StationSwitch[a.Flows[i].Spec.Msg.Source] != base.StationSwitch[a.Flows[i].Spec.Msg.Dest]
		want := a.Flows[i].EndToEnd
		if crosses {
			want += d // one trunk crossing, propagation is a constant shift
		}
		if b.Flows[i].EndToEnd != want {
			t.Errorf("%s (crosses=%v): bound %v, want %v",
				a.Flows[i].Spec.Msg.Name, crosses, b.Flows[i].EndToEnd, want)
		}
		// The floor shifts by exactly the same constant.
		wantFloor := a.Flows[i].Floor
		if crosses {
			wantFloor += d
		}
		if b.Flows[i].Floor != wantFloor {
			t.Errorf("%s: floor %v, want %v", a.Flows[i].Spec.Msg.Name, b.Flows[i].Floor, wantFloor)
		}
	}
}

func TestTreeHeteroStationRateAffectsOnlyItsStages(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	base := heteroTree(set)
	fast := heteroTree(set)
	// Speed up the bottleneck destination's access link.
	fast.StationRates = map[string]simtime.Rate{traffic.StationMC: 100 * simtime.Mbps}

	a, err := TreeEndToEnd(set, Priority, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TreeEndToEnd(set, Priority, cfg, fast)
	if err != nil {
		t.Fatal(err)
	}
	tighter := false
	for i := range a.Flows {
		m := a.Flows[i].Spec.Msg
		// A faster access link can only tighten: directly for flows that
		// touch the station, and indirectly for trunk peers of flows
		// sourced there (their curves enter the trunk less inflated).
		if b.Flows[i].EndToEnd > a.Flows[i].EndToEnd {
			t.Errorf("%s: faster access link loosened bound %v → %v",
				m.Name, a.Flows[i].EndToEnd, b.Flows[i].EndToEnd)
		}
		if (m.Source == traffic.StationMC || m.Dest == traffic.StationMC) &&
			b.Flows[i].EndToEnd < a.Flows[i].EndToEnd {
			tighter = true
		}
	}
	if !tighter {
		t.Error("faster access link tightened no bound at the overridden station")
	}
}

func TestTreeValidateOverrides(t *testing.T) {
	set := traffic.RealCase()
	stations := set.Stations()
	bad := []*Tree{
		func() *Tree { tr := heteroTree(set); tr.TrunkRates = []simtime.Rate{-1}; return tr }(),
		func() *Tree { tr := heteroTree(set); tr.TrunkRates = []simtime.Rate{1, 2}; return tr }(),
		func() *Tree { tr := heteroTree(set); tr.TrunkProps = []simtime.Duration{-1}; return tr }(),
		func() *Tree { tr := heteroTree(set); tr.TrunkProps = []simtime.Duration{1, 2}; return tr }(),
		func() *Tree {
			tr := heteroTree(set)
			tr.StationRates = map[string]simtime.Rate{"ghost": simtime.Mbps}
			return tr
		}(),
		func() *Tree {
			tr := heteroTree(set)
			tr.StationProps = map[string]simtime.Duration{stations[0]: -5}
			return tr
		}(),
	}
	for i, tr := range bad {
		if err := tr.Validate(stations); err == nil {
			t.Errorf("bad override set %d accepted", i)
		}
	}
	good := heteroTree(set)
	good.TrunkRates = []simtime.Rate{simtime.Gbps}
	good.StationProps = map[string]simtime.Duration{stations[0]: 100}
	if err := good.Validate(stations); err != nil {
		t.Errorf("good overrides rejected: %v", err)
	}
	if !good.Heterogeneous() || heteroTree(set).Heterogeneous() {
		t.Error("Heterogeneous misreports")
	}
}

func TestTreeHeteroSlowLinkCanBeUnstable(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	tr := heteroTree(set)
	// A 100 Kbps trunk cannot carry the real case's aggregate rate.
	tr.TrunkRates = []simtime.Rate{100 * simtime.Kbps}
	if _, err := TreeEndToEnd(set, FCFS, cfg, tr); err == nil {
		t.Error("oversubscribed trunk produced a finite bound")
	}
}

// TestTreeValidateFirstError pins which error Validate reports when
// several entries are bad: the smallest unreachable switch, and the
// smallest offending station key, checked placement before sign — the
// entry a scan in sorted order stops at — on every call, whatever the
// map iteration order.
func TestTreeValidateFirstError(t *testing.T) {
	placed := func() map[string]int { return map[string]int{"a": 0, "m": 1, "z": 2} }
	chain := func() *Tree { return &Tree{Switches: 3, Links: [][2]int{{0, 1}, {1, 2}}, StationSwitch: placed()} }
	cases := []struct {
		tree *Tree
		want string
	}{
		{&Tree{Switches: 5, Links: [][2]int{{0, 1}, {3, 4}, {2, 4}, {4, 3}}, StationSwitch: placed()},
			"analysis: switch 2 unreachable"},
		{func() *Tree { t := chain(); t.StationSwitch["sw9"] = 0; t.StationSwitch["sw10"] = 1; return t }(),
			`analysis: station name "sw10" collides with the switch namespace (sw<number>)`},
		{func() *Tree {
			t := chain()
			t.StationRates = map[string]simtime.Rate{"z": -1, "b": simtime.Mbps}
			return t
		}(),
			`analysis: rate override for unplaced station "b"`},
		{func() *Tree {
			t := chain()
			t.StationRates = map[string]simtime.Rate{"m": -3, "q": simtime.Mbps, "z": -1}
			return t
		}(), `analysis: negative rate -3bps for station "m"`},
		{func() *Tree { t := chain(); t.StationProps = map[string]simtime.Duration{"z": -1, "c": 1}; return t }(),
			`analysis: propagation override for unplaced station "c"`},
		{func() *Tree { t := chain(); t.StationProps = map[string]simtime.Duration{"a": -7, "y": 1}; return t }(),
			`analysis: negative propagation delay -7ns for station "a"`},
	}
	for i, c := range cases {
		for run := 0; run < 20; run++ {
			err := c.tree.Validate([]string{"a", "m", "z"})
			if err == nil || err.Error() != c.want {
				t.Fatalf("case %d run %d: error %v, want %q", i, run, err, c.want)
			}
		}
	}
}
