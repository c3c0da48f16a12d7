package core

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/sweep"
)

// Experiment is the one generic cross-validation runner behind every grid
// and replication driver: each point of a parameter space binds to a
// Scenario, its analytic bounds are computed once, opts.Reps independent
// simulation replications run on the parallel sweep engine, and a Cell
// function folds bounds and replications into the experiment's row type.
//
// RunGrid (rates × loads, experiment S3), RunTopoGrid (topology × rate ×
// load, experiment M3), Scenario.Validate (experiment S1) and
// Scenario.Sweep are all instances of this one runner, which is what
// guarantees the soundness verdict, the replication seeding
// (des.SplitSeed(opts.Seed, point*reps+rep)) and the bit-identical-at-any-
// worker-count contract can never drift between experiments.
type Experiment[P, C any] struct {
	// Points enumerates the parameter space.
	Points []P
	// Bind builds the scenario of one point: workload, architecture and
	// simulation parameters. Bounds are computed (and can fail) before any
	// expensive simulation runs.
	Bind func(P) (*Scenario, error)
	// Cell folds one point's analytic bounds and simulation replications
	// into the experiment's row. Replications carry merged-quantile
	// histograms (CollectLatencies is forced on).
	Cell func(p P, s *Scenario, bounds *analysis.Result, sims []*SimResult) (C, error)
}

// Run executes the experiment: bind and bound every point first (cheap,
// fallible), then all point×replication simulations share one worker pool,
// then cells are folded in point order. For a fixed opts.Seed the result
// is bit-identical at any opts.Workers value.
func (e Experiment[P, C]) Run(opts SweepOptions) ([]C, error) {
	reps := opts.reps()
	scens, bounds, idx, err := e.bindAll(opts.workers())
	if err != nil {
		return nil, err
	}
	sims, err := sweep.Replicate(idx, reps, opts.workers(), opts.Seed,
		func(i int, seed uint64) (*SimResult, error) {
			cfg := scens[i].Sim
			cfg.Seed = seed
			cfg.CollectLatencies = true
			return SimulateNetwork(scens[i].Set, cfg, scens[i].Net)
		})
	if err != nil {
		return nil, err
	}
	out := make([]C, len(e.Points))
	for i, p := range e.Points {
		c, err := e.Cell(p, scens[i], bounds[i], sims[i])
		if err != nil {
			return nil, fmt.Errorf("core: experiment point %d (%s): %w", i, scens[i].Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// bindAll binds and bounds every point — the fallible prefix shared by
// Run and RunStream. Points bind on the sweep worker pool: Bind and the
// analytic bounds are pure functions of their point (analysis plans hold
// structure only, so whichever point compiles a shared plan, every point
// evaluates it to identical bytes), so the results — and the
// lowest-index error, which the pool guarantees — are bit-identical at
// any worker count.
func (e Experiment[P, C]) bindAll(workers int) (scens []*Scenario, bounds []*analysis.Result, idx []int, err error) {
	idx = make([]int, len(e.Points))
	for i := range idx {
		idx[i] = i
	}
	type bindResult struct {
		s *Scenario
		b *analysis.Result
	}
	res, err := sweep.RunIndexed(idx, workers, func(i, _ int) (bindResult, error) {
		s, err := e.Bind(e.Points[i])
		if err != nil {
			return bindResult{}, fmt.Errorf("core: experiment point %d: %w", i, err)
		}
		b, err := s.Analyze(s.Sim.Approach)
		if err != nil {
			return bindResult{}, fmt.Errorf("core: experiment point %d (%s): %w", i, s.Name, err)
		}
		return bindResult{s: s, b: b}, nil
	})
	if err != nil {
		// The messages built above already name the point; drop the pool's
		// redundant "sweep: point N:" wrapper so callers see the exact
		// errors the serial formulation produced.
		return nil, nil, nil, errors.Unwrap(err)
	}
	scens = make([]*Scenario, len(e.Points))
	bounds = make([]*analysis.Result, len(e.Points))
	for i, r := range res {
		scens[i], bounds[i] = r.s, r.b
	}
	return scens, bounds, idx, nil
}

// RunStream executes the experiment like Run but hands each cell to emit
// in point order as soon as that point's replications and fold complete —
// the scenario service streams grid cells over HTTP this way while later
// cells are still simulating. The replication seeds are the very same
// substreams Run draws (des.SplitSeed(opts.Seed, point*reps+rep)), so the
// streamed cells are identical to Run's, cell for cell, at any
// opts.Workers value; only the pool granularity differs (one point's
// replications run serially inside one worker instead of fanning out).
// emit calls are serialized and in order; an emit error aborts the run.
func (e Experiment[P, C]) RunStream(opts SweepOptions, emit func(C) error) error {
	reps := opts.reps()
	scens, bounds, idx, err := e.bindAll(opts.workers())
	if err != nil {
		return err
	}
	return sweep.RunIndexedStream(idx, opts.workers(),
		func(i, _ int) (C, error) {
			var zero C
			sims := make([]*SimResult, reps)
			for j := 0; j < reps; j++ {
				cfg := scens[i].Sim
				cfg.Seed = des.SplitSeed(opts.Seed, uint64(i*reps+j))
				cfg.CollectLatencies = true
				sim, err := SimulateNetwork(scens[i].Set, cfg, scens[i].Net)
				if err != nil {
					return zero, fmt.Errorf("core: experiment point %d (%s) replication %d: %w", i, scens[i].Name, j, err)
				}
				sims[j] = sim
			}
			c, err := e.Cell(e.Points[i], scens[i], bounds[i], sims)
			if err != nil {
				return zero, fmt.Errorf("core: experiment point %d (%s): %w", i, scens[i].Name, err)
			}
			return c, nil
		},
		func(_ int, c C) error { return emit(c) })
}
