package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenariogen"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// validate-mix: a seeded stream of distinct generated scenarios, with the
// real case and the two committed dual-plane fixtures interleaved. Each op
// decodes the scenario's JSON bytes, binds it, cross-validates it with
// validateReps simulation replications, and checks the backlog
// high-water marks against the per-edge bounds. Closed loop, one caller.
//
// The run is a sequence of rounds of validateRound ops. Each round's
// generated scenarios are made before it, outside the measured time, and
// no generated scenario is validated twice, however fast the run goes.

const (
	validateReps      = 4
	validateWorkers   = 1
	validatePeriod    = 16 // ops per real-case op; also the trace block
	validateDigestOps = 64 // ops the digest and des.events cover
	validateRound     = 64 * validatePeriod
	// validateSpeedEvery is how many ops run between two samples of the
	// host speed: about a tenth of a second.
	validateSpeedEvery = 64
	// validateRoundDocs is how many generated scenarios a round uses: all
	// but the real-case and fixture slot of every period.
	validateRoundDocs = validateRound / validatePeriod * (validatePeriod - 2)
)

// fixtures are the committed scenarios interleaved with generated ones,
// relative to the checkout root.
var fixtures = []string{
	"internal/topology/testdata/dual_hetero.json",
	"examples/topologies/skewed_dual.json",
}

type validateDoc struct {
	name  string
	json  []byte
	flows int // expected validation rows
}

type validateState struct {
	seed      uint64
	real      validateDoc
	fixtures  []validateDoc
	generated []validateDoc // the current round's
	next      uint64        // generator index of the next scenario
}

func setupValidate(e *env) (state, error) {
	st := &validateState{seed: e.seed}
	var err error
	if st.real, err = docOf(topology.Default(), nil); err != nil {
		return nil, err
	}
	for _, f := range fixtures {
		raw, err := os.ReadFile(filepath.Join(e.root, f))
		if err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
		cfg, err := topology.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", f, err)
		}
		d, err := docOf(cfg, raw)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", f, err)
		}
		st.fixtures = append(st.fixtures, d)
	}
	st.fill()
	if e.corrupt {
		st.real.flows++
	}
	return st, nil
}

// fill replaces the generated scenarios with the next round's, fresh from
// the generator.
func (st *validateState) fill() {
	st.generated = st.generated[:0]
	for len(st.generated) < validateRoundDocs {
		d, err := docOf(scenariogen.Generate(des.SplitSeed(st.seed, st.next), scenariogen.Params{}), nil)
		st.next++
		if err != nil {
			continue // no finite bound exists: an op would fail by design
		}
		st.generated = append(st.generated, d)
	}
}

// docOf pairs a scenario's JSON bytes (raw, or its saved form when raw
// is nil) with its expected row count; it fails for scenarios without
// finite bounds. The count is computed with the reuse layers off, so it
// leaves nothing in the caches the measured ops use.
func docOf(cfg *topology.Config, raw []byte) (validateDoc, error) {
	if raw == nil {
		var buf bytes.Buffer
		if err := cfg.Save(&buf); err != nil {
			return validateDoc{}, err
		}
		raw = buf.Bytes()
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		return validateDoc{}, err
	}
	var res *analysis.Result
	err = withoutReuse(func() (err error) {
		res, err = s.Analyze(s.Sim.Approach)
		return err
	})
	if err != nil {
		return validateDoc{}, err
	}
	return validateDoc{name: cfg.Name, json: raw, flows: len(res.Flows)}, nil
}

// doc returns the scenario of op i, the g-th generated one of the round
// unless op i is a real-case or fixture slot; generated reports whether
// it was.
func (st *validateState) doc(i, g int) (d validateDoc, generated bool) {
	switch i % validatePeriod {
	case 0:
		return st.real, false
	case validatePeriod / 2:
		return st.fixtures[(i/validatePeriod)%len(st.fixtures)], false
	}
	return st.generated[g], true
}

type validateOutput struct {
	name    string
	v       *core.Validation
	verdict core.BacklogVerdict
}

func (st *validateState) measure(e *env, h *hostSpeed) (*outcome, error) {
	out := &outcome{}
	var kept []validateOutput
	var lat [2][]float64
	var events uint64
	var simNs, simEvents float64
	var cur round
	var spent time.Duration // measured time of the closed stretches
	gen := 0
	start, cpu0 := time.Now(), cpuNow()
	// The run ends when its measured time reaches e.seconds, but not
	// before the ops the digest covers, so every run digests the same
	// outputs.
	for i := 0; spent+time.Since(start) < e.seconds || i < validateDigestOps; i++ {
		if i > 0 && i%validateSpeedEvery == 0 {
			// Close the stretch and, outside the measured time, sample
			// the host speed; at a round's end, also take the live heap
			// after a fixed number of ops and make the next round's
			// scenarios.
			d := time.Since(start)
			cur.dur += d
			cur.cpu += cpuNow() - cpu0
			spent += d
			h.sample()
			if i%validateRound == 0 {
				out.rounds = closeRound(out.rounds, cur, h)
				if len(out.rounds) == 1 {
					out.heapMB = liveHeapMB()
				}
				st.fill()
				cur, gen = round{}, 0
			}
			start, cpu0 = time.Now(), cpuNow()
		}
		d, generated := st.doc(i, gen)
		if generated {
			gen++
		}
		block := i / validatePeriod
		tr := traceBlock(e.tr, block)
		seed := des.SplitSeed(e.seed^0x76616c, uint64(i))
		c0 := cpuNow()
		sc, v, verdict, err := validateOp(tr, int64(i), d, seed)
		ms := cpuMs(c0)
		cur.lat = append(cur.lat, ms)
		if block > 0 {
			lat[block%2] = append(lat[block%2], ms)
		}
		out.attempted++
		if err == nil {
			err = checkValidation(d, v, verdict)
		}
		if err != nil {
			out.failed++
			out.wrong++
			if out.wrong == 1 {
				out.notes = append(out.notes, fmt.Sprintf("first failure: op %d (%s): %v", i, d.name, err))
			}
			continue
		}
		cur.ops++
		if len(kept) < validateDigestOps {
			kept = append(kept, validateOutput{d.name, v, verdict})
		}
		if e.tr != nil {
			// Replications re-run on every op, so des.events covers a
			// fixed prefix; spans are kept in traced blocks only.
			n, ns, err := traceLayers(tr, int64(i), sc, v, seed)
			if err != nil {
				return nil, err
			}
			if i < validateDigestOps {
				events += n
			}
			simNs += ns
			simEvents += float64(n)
		}
	}
	if len(out.rounds) == 0 {
		cur.dur += time.Since(start)
		cur.cpu += cpuNow() - cpu0
		h.sample()
		out.rounds = closeRound(out.rounds, cur, h)
	}
	out.digest, out.digestOps = validateDigest(kept), len(kept)
	if e.tr != nil {
		out.layers = map[string]float64{
			"trace.overhead":   overhead(lat),
			"des.events":       float64(events),
			"des.ns_per_event": simNs / max(simEvents, 1),
		}
	}
	return out, nil
}

// validateOp is one timed op: decode, bind, cross-validate, and bound the
// backlogs the verdict needs.
func validateOp(tr *tracer, op int64, d validateDoc, seed uint64) (*core.Scenario, *core.Validation, core.BacklogVerdict, error) {
	root := tr.begin("op", op, 0)
	defer tr.end(root)
	id := tr.begin("topology.load", op, root)
	cfg, err := topology.Load(bytes.NewReader(d.json))
	tr.end(id)
	if err != nil {
		return nil, nil, core.BacklogVerdict{}, err
	}
	id = tr.begin("core.bind", op, root)
	s, err := core.NewScenario(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, core.BacklogVerdict{}, err
	}
	sc := withReplicatedSources(s)
	id = tr.begin("core.validate", op, root)
	v, err := sc.Validate(core.SweepOptions{Workers: validateWorkers, Reps: validateReps, Seed: seed})
	tr.end(id)
	if err != nil {
		return nil, nil, core.BacklogVerdict{}, err
	}
	id = tr.begin("core.backlogs", op, root)
	bl, err := s.Backlogs()
	tr.end(id)
	if err != nil {
		return nil, nil, core.BacklogVerdict{}, err
	}
	return sc, v, bl.CheckMarks(v.PortMaxBacklog), nil
}

// withReplicatedSources selects random phases and gaps for replicated
// runs, as `rtether validate -reps` does, unless the scenario pins its
// source regime.
func withReplicatedSources(s *core.Scenario) *core.Scenario {
	c := *s
	if s.Cfg != nil && s.Cfg.Sim != nil && (s.Cfg.Sim.Mode != "" || s.Cfg.Sim.AlignPhases != nil) {
		return &c
	}
	c.Sim.Mode = traffic.RandomGaps
	c.Sim.MeanSlack = core.DefaultMeanSlack
	c.Sim.AlignPhases = false
	return &c
}

// traceLayers times, outside the op, layer calls the op does not make
// itself: the canonical hash, and each replication re-run through
// core.SimulateNetwork on its own seed to count simulator events.
func traceLayers(tr *tracer, op int64, sc *core.Scenario, v *core.Validation, seed uint64) (events uint64, simNs float64, err error) {
	id := tr.begin("core.hash", op, 0)
	_, err = core.CanonicalConfigHash(sc.Cfg)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	for j := range validateReps {
		cfg := sc.Sim
		cfg.Seed = des.SplitSeed(seed, uint64(j))
		cfg.CollectLatencies = true
		t0 := time.Now()
		id := tr.begin("core.simulate", op, 0)
		sim, err := core.SimulateNetwork(sc.Set, cfg, sc.Net)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		simNs += float64(time.Since(t0).Nanoseconds())
		if j == 0 && sim.Events != v.Sim.Events {
			return 0, 0, fmt.Errorf("op %d: re-run replication executed %d events, validation %d", op, sim.Events, v.Sim.Events)
		}
		events += sim.Events
	}
	return events, simNs, nil
}

// checkValidation holds one op to its expected output: one row per
// connection, every bound respected, every queue within its bound.
func checkValidation(d validateDoc, v *core.Validation, verdict core.BacklogVerdict) error {
	if len(v.Rows) != d.flows {
		return fmt.Errorf("%d rows, want %d", len(v.Rows), d.flows)
	}
	if !v.AllSound() {
		return fmt.Errorf("observed latency exceeds a bound")
	}
	if !verdict.Sound() {
		return fmt.Errorf("%d of %d queues exceed their backlog bound", verdict.Unsound, verdict.Ports)
	}
	return nil
}

func validateDigest(kept []validateOutput) string {
	h := sha256.New()
	for _, k := range kept {
		fmt.Fprintf(h, "%s|%d|%d\n", k.name, k.v.Reps, k.v.Dropped)
		for _, r := range k.v.Rows {
			fmt.Fprintf(h, "%s:%d:%d:%d\n", r.Name, int64(r.Bound), int64(r.Observed), r.Delivered)
		}
		fmt.Fprintf(h, "backlog %d/%d %s %d\n", k.verdict.Unsound, k.verdict.Ports, k.verdict.WorstKey, k.verdict.WorstObserved.Bits())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
