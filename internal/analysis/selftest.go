package analysis

import (
	"fmt"
	"reflect"

	"repro/internal/des"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// SelfTest checks plan evaluation against the oracles of reference.go on
// a fixed set of random cells: selfTestStructures random trees and
// workloads, each evaluated under selfTestVariants random numeric inputs
// (payloads, periods, priorities, deadlines, link rate, relaying latency,
// per-link overrides, discipline) so that every structure's plan is
// compiled once and then reused with numbers it was not compiled from.
// Some overrides starve a link, so error outcomes are compared too.
// Each cell is evaluated with a private plan table, cold then warm, and
// with no table at all. It returns an error naming the first cell whose
// outcome — bounds, backlogs, or error text — differs from the oracle's.
// It takes a few milliseconds, cheap enough to run at service start.
func SelfTest() error {
	t := &planTable{limit: planTableCap}
	for s := 0; s < selfTestStructures; s++ {
		shape := des.Stream(selfTestSeed, uint64(s))
		tree, ends := randomStructure(shape)
		for v := 0; v < selfTestVariants; v++ {
			rng := des.Stream(selfTestSeed+1+uint64(s), uint64(v))
			set, approach, cfg, cell := randomNumbers(rng, tree, ends)
			if err := selfTestCell(set, approach, cfg, cell, t); err != nil {
				return fmt.Errorf("analysis: plan self-test, structure %d variant %d: %w", s, v, err)
			}
		}
	}
	return nil
}

const (
	selfTestSeed       = 0x5e1f7e57
	selfTestStructures = 6
	selfTestVariants   = 6
)

// selfTestCell compares one cell's plan outcomes with the oracles'.
func selfTestCell(set *traffic.Set, approach Approach, cfg Config, tree *Tree, t *planTable) error {
	wantRes, wantErr := ReferenceTreeEndToEnd(set, approach, cfg, tree)
	wantBl, wantBlErr := ReferenceEdgeBacklogs(set, cfg, tree)
	for _, table := range []struct {
		name string
		t    *planTable
	}{{"cold or reused table", t}, {"warm table", t}, {"no table", nil}} {
		res, err := treeEndToEnd(set, approach, cfg, tree, table.t)
		if !sameOutcome(res, err, wantRes, wantErr) {
			return fmt.Errorf("%s: TreeEndToEnd diverges from the oracle (errors: %v; oracle %v)", table.name, err, wantErr)
		}
		bl, err := edgeBacklogs(set, cfg, tree, table.t)
		if !sameOutcome(edgesOf(bl), err, edgesOf(wantBl), wantBlErr) {
			return fmt.Errorf("%s: EdgeBacklogs diverges from the oracle (errors: %v; oracle %v)", table.name, err, wantBlErr)
		}
	}
	return nil
}

// edgesOf returns the comparable part of a backlog table (its lazily
// built key index depends on lookup history, not on the bounds).
func edgesOf(r *EdgeBacklogResult) any {
	if r == nil {
		return nil
	}
	return struct {
		Cfg   Config
		Edges []EdgeBacklog
	}{r.Cfg, r.Edges}
}

// sameOutcome reports whether two (result, error) outcomes agree: equal
// error texts, or no errors and deeply equal results.
func sameOutcome(got any, gotErr error, want any, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got, want)
}

// randomStructure draws a tree of 1–6 switches with 3–8 stations placed
// on it, and 4–20 (source, destination) station pairs.
func randomStructure(rng *des.RNG) (*Tree, [][2]string) {
	tree := &Tree{Switches: 1 + rng.Intn(6), StationSwitch: map[string]int{}}
	for i := 1; i < tree.Switches; i++ {
		l := [2]int{rng.Intn(i), i}
		if rng.Intn(2) == 0 {
			l[0], l[1] = l[1], l[0]
		}
		tree.Links = append(tree.Links, l)
	}
	stations := make([]string, 3+rng.Intn(6))
	for k := range stations {
		stations[k] = fmt.Sprintf("st%d", k)
		tree.StationSwitch[stations[k]] = rng.Intn(tree.Switches)
	}
	ends := make([][2]string, 4+rng.Intn(17))
	for i := range ends {
		src := rng.Intn(len(stations))
		dst := (src + 1 + rng.Intn(len(stations)-1)) % len(stations)
		ends[i] = [2]string{stations[src], stations[dst]}
	}
	return tree, ends
}

// randomNumbers draws every numeric input of one cell over a structure:
// the messages' sizes, periods, deadlines and classes, the discipline,
// the configuration, and a copy of the tree with random per-link rate and
// propagation overrides.
func randomNumbers(rng *des.RNG, tree *Tree, ends [][2]string) (*traffic.Set, Approach, Config, *Tree) {
	set := &traffic.Set{}
	for i, e := range ends {
		set.Messages = append(set.Messages, &traffic.Message{
			Name:     fmt.Sprintf("m%d", i),
			Source:   e[0],
			Dest:     e[1],
			Kind:     traffic.Kind(rng.Intn(2)),
			Period:   simtime.Duration(1+rng.Intn(160)) * simtime.Millisecond,
			Payload:  simtime.Bytes(1 + rng.Intn(1500)),
			Deadline: simtime.Duration(1+rng.Intn(200)) * simtime.Millisecond,
			Priority: traffic.Priority(rng.Intn(traffic.NumPriorities)),
		})
	}
	rates := []simtime.Rate{0, 0, simtime.Mbps / 4, 10 * simtime.Mbps, 25 * simtime.Mbps, 100 * simtime.Mbps}
	cell := *tree
	cell.TrunkRates, cell.TrunkProps = nil, nil
	cell.StationRates, cell.StationProps = nil, nil
	if rng.Intn(2) == 0 {
		for range tree.Links {
			cell.TrunkRates = append(cell.TrunkRates, rates[rng.Intn(len(rates))])
			cell.TrunkProps = append(cell.TrunkProps, simtime.Duration(rng.Intn(5))*simtime.Microsecond)
		}
		cell.StationRates = map[string]simtime.Rate{}
		cell.StationProps = map[string]simtime.Duration{}
		for _, e := range ends {
			cell.StationRates[e[1]] = rates[rng.Intn(len(rates))]
			cell.StationProps[e[0]] = simtime.Duration(rng.Intn(5)) * simtime.Microsecond
		}
	}
	cfg := Config{
		LinkRate: []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps, 1000 * simtime.Mbps}[rng.Intn(3)],
		TTechno:  simtime.Duration(rng.Intn(200)) * simtime.Microsecond,
		Tagged:   rng.Intn(2) == 0,
	}
	return set, Approach(rng.Intn(2)), cfg, &cell
}
