package core

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/netcalc"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The reuse layers must actually engage on the smoke grid — a refactor
// that silently stops reusing them would keep every result byte-identical
// while quietly giving back the speedup, so CI asserts it. Analysis plans
// are compiled exactly once per distinct structure (tree shape plus flow
// placement) and every other cell reuses one; the netcalc curve memo must
// record hits.
func TestTopoGridMemoHitRate(t *testing.T) {
	if !netcalc.MemoEnabled() || !analysis.CacheEnabled() {
		t.Skip("reuse layers disabled in this process")
	}
	base := DefaultSimConfig(analysis.Priority)
	base.Horizon = 20 * simtime.Millisecond
	rates := []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps}
	points := TopoGrid(topology.Families(), rates, []int{0, 8})

	// The distinct structures of the grid, counted independently of the
	// plan table: every plane tree of every cell, keyed by its shape and
	// its flows' placement (rates and loads' numbers excluded).
	structures := map[string]bool{}
	for _, p := range points {
		set := traffic.RealCaseWith(p.ExtraRTs)
		net := p.Family.Build(set.Stations())
		for pl := 0; pl < net.PlaneCount(); pl++ {
			structures[structureKey(set, net.PlaneTree(pl, p.Rate))] = true
		}
		structures[structureKey(set, net.Tree())] = true
	}

	analysis.ResetDefaultCache()
	memoBefore := netcalc.Stats()
	cells, err := RunTopoGrid(points, base, SweepOptions{Workers: 2, Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(points) {
		t.Fatalf("got %d cells, want %d", len(cells), len(points))
	}
	memoAfter := netcalc.Stats()
	plans := analysis.DefaultCacheStats()

	if hits := memoAfter.Hits - memoBefore.Hits; hits == 0 {
		t.Errorf("netcalc memo recorded no hits over the smoke grid (misses grew by %d)",
			memoAfter.Misses-memoBefore.Misses)
	}
	if plans.Misses != uint64(len(structures)) {
		t.Errorf("%d plans compiled for %d distinct structures", plans.Misses, len(structures))
	}
	if plans.Hits < uint64(len(points)) {
		t.Errorf("%d plan reuses over %d cells: cells recompile shared structures", plans.Hits, len(points))
	}
}

// structureKey renders the structure an analysis plan is compiled for.
func structureKey(set *traffic.Set, tree *analysis.Tree) string {
	key := fmt.Sprint(tree.Switches, tree.Links)
	for _, s := range set.Stations() {
		key += fmt.Sprintf(" %s@%d", s, tree.StationSwitch[s])
	}
	for _, m := range set.Messages {
		key += " " + m.Source + ">" + m.Dest
	}
	return key
}
