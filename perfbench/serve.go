package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/render"
	"repro/internal/scenariogen"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// serve-mix: the HTTP service, serve.New behind httptest.NewServer, over
// loopback. Requests draw on a seeded pool of scenarios: a fixed share
// repeat a recently sent request (result-cache hits), the rest walk a
// cycle of keys longer than the cache (misses: compute plus insert).
//
// The measured phase is a closed loop: one caller on one connection
// sends the next request when the last reply has been checked, for
// serveClosedShare of the run; it gives every printed metric. An open
// loop follows, record only: evenly spaced arrivals from serveSenders
// goroutines on at most serveSenders connections, timed from each
// request's due time, at the nominal rate and then up an ascending
// ladder of rates, stopped at the first rung that misses the latency
// limit, which gives max_rps. On a shared host, time the host gives to
// other guests lands on the open loop's latencies whole (see README.md),
// so no bound holds them.
//
// No traffic of the service has been recorded, so the mix is assumed:
// the values marked "assumed" below are choices, not measurements, and
// a claim about trading hits against misses holds for this mix only.

const (
	serveSenders      = 2   // open loop: goroutines issuing requests, and connections: nproc on the defining host
	servePool         = 200 // scenarios: 800 analyze/backlog keys, more than the cache holds
	serveValidateKeys = 64
	serveCacheEntries = 256 // the `rtether serve -cache-entries` default
	// serveRepeatShare is the share of requests that repeat a recent one
	// (assumed: an even split weighs the hit and the miss path alike).
	serveRepeatShare = 0.5
	// serveValidateShare is the share of novel requests that validate; the
	// rest split evenly between analyze and backlog (assumed: "mostly
	// analyze and backlog, a small share of validate").
	serveValidateShare = 0.05
	// serveHotSet: a repeat picks among the last distinct keys sent, far
	// fewer than the cache holds, so every repeat is a hit.
	serveHotSet = 16
	// The closed loop: its share of the run, the requests generated per
	// second of run (more than one caller completes), the requests per
	// round, and the fixed prefix every run completes and digests.
	serveClosedShare   = 0.5
	serveClosedMaxRate = 10_000
	serveRound         = 1000
	serveDigestOps     = 2000
	serveSpeedEvery    = 250 // requests between two samples of the host speed
	// serveNominalRPS is the open loop's fixed nominal rate, well under
	// the lowest max_rps measured on the defining host (see README.md);
	// the nominal phase takes serveNominalShare of the run.
	serveNominalRPS   = 500
	serveNominalShare = 0.1
	serveLimitMs      = 25.0 // p99 latency limit a rung must meet
	serveRungRequests = 1000 // ten samples beyond p99
	serveTimeout      = time.Second
	serveTraceBlock   = 100 // requests per traced or untraced window
	serveProbeOps     = 400 // direct layer calls in traced runs
	// serveValidateQuery is the query the service's own
	// TestValidateMatchesRender sends: 2 replications over 20 ms.
	serveValidateQuery = "reps=2&horizon_us=20000&parallel=1&seed="
)

// serveLadder is the fixed rate ladder for max_rps, in requests/s: 600
// requests/s and up in steps of 16 %.
var serveLadder = func() []float64 {
	var l []float64
	for r := 600.0; r < 12_000; r *= 1.16 {
		l = append(l, math.Round(r))
	}
	return l
}()

// serveReq is one distinct request: endpoint and query, scenario body, and
// the body the service must return, rendered directly during set-up.
type serveReq struct {
	kind string // analyze, backlog or validate
	path string
	body []byte
	want []byte
}

type serveState struct {
	reqs    []serveReq
	closed  []int      // request indices of the closed loop, more than it reaches
	nominal []int      // request indices of the open loop's nominal phase
	rungs   [][2][]int // request indices of each ladder rung and its retry
}

func setupServe(e *env) (state, error) {
	st := &serveState{}
	real, err := docOf(topology.Default(), nil)
	if err != nil {
		return nil, err
	}
	docs := [][]byte{real.json}
	for _, f := range fixtures {
		raw, err := os.ReadFile(filepath.Join(e.root, f))
		if err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
		docs = append(docs, raw)
	}
	for i := uint64(0); len(docs) < servePool; i++ {
		d, err := docOf(scenariogen.Generate(des.SplitSeed(e.seed^0x7365727665, i), scenariogen.Params{}), nil)
		if err != nil {
			continue // no finite bound exists: the request would fail by design
		}
		docs = append(docs, d.json)
	}
	for _, doc := range docs {
		cfg, err := topology.Load(bytes.NewReader(doc))
		if err != nil {
			return nil, err
		}
		sc, err := core.NewScenario(cfg)
		if err != nil {
			return nil, err
		}
		for _, flag := range []bool{false, true} {
			q := strconv.FormatBool(flag)
			var a, b bytes.Buffer
			if err := render.Analyze(&a, sc, flag); err != nil {
				return nil, err
			}
			if err := render.Backlog(&b, sc, flag); err != nil {
				return nil, err
			}
			st.reqs = append(st.reqs,
				serveReq{kind: "analyze", path: "/v1/analyze?e2e=" + q, body: doc, want: a.Bytes()},
				serveReq{kind: "backlog", path: "/v1/backlog?dimension=" + q, body: doc, want: b.Bytes()})
		}
	}
	cheap := len(st.reqs)
	for k := range serveValidateKeys {
		i := 3 + k%(len(docs)-3) // generated scenarios only
		seed := uint64(k + 1)
		cfg, err := topology.Load(bytes.NewReader(docs[i]))
		if err != nil {
			return nil, err
		}
		sc, err := core.NewScenario(cfg)
		if err != nil {
			return nil, err
		}
		var v bytes.Buffer
		opts := core.SweepOptions{Workers: 1, Reps: 2, Seed: seed}
		if err := render.Validate(&v, sc, opts, 20*simtime.Millisecond, true); err != nil {
			return nil, err
		}
		st.reqs = append(st.reqs, serveReq{kind: "validate", path: "/v1/validate?" + serveValidateQuery + strconv.FormatUint(seed, 10),
			body: docs[i], want: v.Bytes()})
	}
	// The request sequence: novel requests walk a seeded cycle of keys,
	// longer than the cache, so every revisit misses; repeats pick a key
	// among the last serveHotSet sent.
	rng := rand.New(rand.NewPCG(e.seed, 0x6f70656e))
	cheapCycle := rng.Perm(cheap)
	validateCycle := rng.Perm(len(st.reqs) - cheap)
	var hot []int
	nc, nv := 0, 0
	next := func() int {
		if len(hot) > 0 && rng.Float64() < serveRepeatShare {
			return hot[rng.IntN(len(hot))]
		}
		var r int
		if rng.Float64() < serveValidateShare {
			r = cheap + validateCycle[nv%len(validateCycle)]
			nv++
		} else {
			r = cheapCycle[nc%len(cheapCycle)]
			nc++
		}
		if len(hot) == serveHotSet {
			hot = hot[1:]
		}
		hot = append(hot, r)
		return r
	}
	for range int(serveClosedMaxRate * e.seconds.Seconds()) {
		st.closed = append(st.closed, next())
	}
	for range int(serveNominalRPS * e.seconds.Seconds() * serveNominalShare) {
		st.nominal = append(st.nominal, next())
	}
	for range serveLadder {
		var rung [2][]int
		for t := range rung {
			for range serveRungRequests {
				rung[t] = append(rung[t], next())
			}
		}
		st.rungs = append(st.rungs, rung)
	}
	if e.corrupt {
		r := &st.reqs[st.closed[0]]
		r.want = append([]byte("corrupted "), r.want...)
	}
	return st, nil
}

// shot is the fate of one scheduled request.
type shot struct {
	req        int
	due, sent  time.Time
	done       time.Time
	ok         bool // 200 with the expected body
	wrong      bool // 200 with another body
	hit        bool
	attempted  bool // false when the schedule was abandoned before it
	handlerDur time.Duration
}

// fire runs one schedule at rate requests/s and returns every shot.
// A schedule the senders fall more than serveTimeout behind is
// abandoned: the backlog is growing without bound.
func fire(client *http.Client, url string, st *serveState, reqs []int, rate float64,
	tr *tracer, handlerDur []atomic.Int64) []shot {
	shots := make([]shot, len(reqs))
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var abandon atomic.Bool
	var wg sync.WaitGroup
	for range serveSenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) || abandon.Load() {
					return
				}
				s := &shots[i]
				s.req = reqs[i]
				s.due = start.Add(time.Duration(i) * gap)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				if s.sent.Sub(s.due) > serveTimeout {
					abandon.Store(true)
					return
				}
				s.attempted = true
				op := int64(i)
				blockTr := tr
				if (i/serveTraceBlock)%2 == 0 {
					blockTr = nil
				}
				send(client, url, &st.reqs[s.req], s, op, blockTr, &buf)
				if handlerDur != nil {
					s.handlerDur = time.Duration(handlerDur[i].Load())
				}
			}
		}()
	}
	wg.Wait()
	return shots
}

// send issues one request and checks its body byte for byte.
func send(client *http.Client, url string, r *serveReq, s *shot, op int64, tr *tracer, buf *bytes.Buffer) {
	id := tr.begin("op", op, 0)
	defer func() {
		tr.end(id)
		s.done = time.Now()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return
	}
	req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	if id != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	s.hit = resp.Header.Get("X-Cache") == "hit"
	s.ok = bytes.Equal(buf.Bytes(), r.want)
	s.wrong = !s.ok
}

// closedLoop sends st.closed one request at a time on one connection
// until the closed loop's share of the run is spent, but not before the
// requests the digest covers. Each request's latency is the process CPU
// time from send to checked reply: the client and the service run in
// this process, one request at a time, so nothing else is counted.
func (st *serveState) closedLoop(client *http.Client, url string, e *env, h *hostSpeed, handlerDur []atomic.Int64, out *outcome) []shot {
	deadline := time.Now().Add(time.Duration(float64(e.seconds) * serveClosedShare))
	shots := make([]shot, 0, len(st.closed))
	var buf bytes.Buffer
	var cur round
	start, cpu0 := time.Now(), cpuNow()
	for i, r := range st.closed {
		if i >= serveDigestOps && time.Now().After(deadline) {
			break
		}
		if i > 0 && i%serveSpeedEvery == 0 {
			// Close the stretch and, outside the measured time, sample
			// the host speed; after the first round, also take the live
			// heap, after a fixed number of requests: the cache is full
			// by then.
			cur.dur += time.Since(start)
			cur.cpu += cpuNow() - cpu0
			h.sample()
			if i%serveRound == 0 {
				out.rounds = closeRound(out.rounds, cur, h)
				if len(out.rounds) == 1 {
					out.heapMB = liveHeapMB()
				}
				cur = round{}
			}
			start, cpu0 = time.Now(), cpuNow()
		}
		tr := e.tr
		if (i/serveTraceBlock)%2 == 0 {
			tr = nil
		}
		shots = append(shots, shot{req: r, attempted: true})
		s := &shots[i]
		c0 := cpuNow()
		s.due = time.Now()
		s.sent = s.due
		send(client, url, &st.reqs[r], s, int64(i), tr, &buf)
		ms := cpuMs(c0)
		if handlerDur != nil {
			s.handlerDur = time.Duration(handlerDur[i].Load())
		}
		cur.lat = append(cur.lat, ms)
		out.attempted++
		if !s.ok {
			out.failed++
			if s.wrong {
				out.wrong++
			}
			if out.failed == 1 {
				out.notes = append(out.notes, fmt.Sprintf("first failure: request %d %s", i, st.reqs[r].path))
			}
			continue
		}
		cur.ops++
	}
	if len(out.rounds) == 0 {
		cur.dur += time.Since(start)
		cur.cpu += cpuNow() - cpu0
		h.sample()
		out.rounds = closeRound(out.rounds, cur, h)
	}
	if len(shots) == len(st.closed) {
		out.notes = append(out.notes, "the closed loop ran out of requests before its time")
	}
	return shots
}

// phase summarises a schedule: latencies from due time, failures, lateness.
type phase struct {
	lat       []float64 // ms from due to done, every attempted shot
	late      []float64 // ms from due to sent
	attempted int
	failed    int
	wrong     int
	span      time.Duration // first due time to last completion
	rate      float64       // achieved: completed requests per second of span
	tailLate  float64       // median lateness over the final quarter, ms
}

func summarise(shots []shot) phase {
	var p phase
	var first, last time.Time
	var tail []float64
	for i, s := range shots {
		p.attempted++
		if !s.attempted {
			p.failed++ // abandoned: counts as a miss of the latency limit
			continue
		}
		ms := float64(s.done.Sub(s.due).Nanoseconds()) / 1e6
		late := float64(s.sent.Sub(s.due).Nanoseconds()) / 1e6
		p.lat = append(p.lat, ms)
		p.late = append(p.late, late)
		if i >= len(shots)*3/4 {
			tail = append(tail, late)
		}
		if !s.ok {
			p.failed++
			if s.wrong {
				p.wrong++
			}
			continue
		}
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	if done := p.attempted - p.failed; done > 0 && last.After(first) {
		p.span = last.Sub(first)
		p.rate = float64(done) / p.span.Seconds()
	}
	p.tailLate = median(tail)
	return p
}

// passes reports whether a rung meets the latency limit with no failure
// and no growing backlog: the generator ends the rung as close to its
// schedule as it ran on average.
func (p phase) passes() bool {
	return p.failed == 0 && quantile(p.lat, 0.99) <= serveLimitMs && p.tailLate <= serveLimitMs/2
}

func (st *serveState) measure(e *env, h *hostSpeed) (*outcome, error) {
	srv := serve.New(serve.Config{CacheEntries: serveCacheEntries, MaxInflight: serveSenders})
	var handler http.Handler = srv
	var handlerDur []atomic.Int64
	if e.tr != nil {
		handlerDur = make([]atomic.Int64, len(st.closed))
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			srv.ServeHTTP(w, r)
			t1 := time.Now()
			op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
			if op >= 0 && op < int64(len(handlerDur)) {
				handlerDur[op].Store(int64(t1.Sub(t0)))
			}
			if parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span")); err == nil {
				e.tr.add("serve.handler", op, parent, t0, t1)
			}
		})
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: serveSenders, MaxIdleConnsPerHost: serveSenders, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out := &outcome{}
	closed := st.closedLoop(client, ts.URL, e, h, handlerDur, out)
	runtime.ReadMemStats(&ms1)
	out.digest, out.digestOps = serveDigest(st, closed[:serveDigestOps]), serveDigestOps

	// The open loop, record only: the nominal rate, then the ladder.
	shots := fire(client, ts.URL, st, st.nominal, serveNominalRPS, nil, nil)
	nom := summarise(shots)
	out.attempted += nom.attempted
	out.failed += nom.failed
	out.wrong += nom.wrong
	out.notes = append(out.notes, fmt.Sprintf("open loop at %g rps: p50 %.3f ms p99 %.3f ms from due, late p99 %.3f ms, failed %d of %d",
		float64(serveNominalRPS), quantile(nom.lat, 0.5), quantile(nom.lat, 0.99), quantile(nom.late, 0.99), nom.failed, nom.attempted))
	out.openP50, out.openP99 = quantile(nom.lat, 0.5), quantile(nom.lat, 0.99)

	if e.tr != nil {
		out.layers = st.serveLayers(e, srv, closed, nom)
		// The probes below the handler run after the requests; the
		// allocation counters cover the closed loop only.
		for k, v := range goStats(ms0, ms1, len(closed)) {
			out.layers[k] = v
		}
		return out, nil
	}
	// Ascend the ladder; a rung that misses the limit gets one retry on
	// fresh requests, so one stall cannot end the climb.
climb:
	for k, rate := range serveLadder {
		for t := range 2 {
			p := summarise(fire(client, ts.URL, st, st.rungs[k][t], rate, nil, nil))
			out.notes = append(out.notes, fmt.Sprintf("rung %g rps try %d: achieved %.1f p50 %.3f ms p99 %.3f ms tail lateness %.3f ms failed %d/%d",
				rate, t, p.rate, quantile(p.lat, 0.5), quantile(p.lat, 0.99), p.tailLate, p.failed, p.attempted))
			out.attempted += p.wrong
			out.failed += p.wrong
			out.wrong += p.wrong
			if p.passes() {
				out.maxRPS = p.rate
				continue climb
			}
		}
		break
	}
	if out.maxRPS == 0 {
		// Not even the lowest rung met the limit: report the nominal rate's
		// achieved rate rather than 0, and the failure shows in the notes.
		out.maxRPS = nom.rate
		out.notes = append(out.notes, "no ladder rung met the latency limit")
	}
	return out, nil
}

// serveLayers derives the service's per-layer metrics from the traced
// closed loop, the open loop's nominal phase, the server's counters, and
// direct calls into the layers beneath the handler on the same request
// pool.
func (st *serveState) serveLayers(e *env, srv *serve.Server, shots []shot, nom phase) map[string]float64 {
	stats := srv.Stats()
	var hit, miss, validate, transport, traced, untraced []float64
	for i, s := range shots {
		if !s.ok {
			continue
		}
		ms := float64(s.done.Sub(s.sent).Nanoseconds()) / 1e6
		if (i/serveTraceBlock)%2 == 1 {
			traced = append(traced, ms)
			if s.handlerDur > 0 {
				transport = append(transport, ms*1e3-float64(s.handlerDur.Nanoseconds())/1e3)
			}
		} else {
			untraced = append(untraced, ms)
		}
		switch {
		case st.reqs[s.req].kind == "validate":
			validate = append(validate, ms)
		case s.hit:
			hit = append(hit, ms)
		default:
			miss = append(miss, ms)
		}
	}
	lookups := stats.Cache.Hits + stats.Cache.Misses
	out := map[string]float64{
		"serve.transport_p50_us":      quantile(transport, 0.5),
		"serve.hit_p50_ms":            quantile(hit, 0.5),
		"serve.miss_p50_ms":           quantile(miss, 0.5),
		"serve.validate_p99_ms":       quantile(validate, 0.99),
		"serve.hit_ratio":             float64(stats.Cache.Hits) / float64(max(lookups, 1)),
		"serve.coalesced":             float64(stats.Cache.Coalesced),
		"serve.evictions":             float64(stats.Cache.Evictions),
		"serve.computes":              float64(stats.Computes),
		"serve.admission_wait_max_us": float64(stats.Admission.MaxWaitMicro),
		"serve.queued_peak":           float64(stats.Admission.QueuedPeak),
		"serve.gen_late_p99_ms":       quantile(nom.late, 0.99),
		"trace.overhead":              overhead([2][]float64{untraced, traced}),
	}
	st.probeLayers(e.tr, int64(len(shots)))
	return out
}

// probeLayers times the layers the handler calls — decode, hash, bind and
// render — directly on the request pool, so the serve and transport
// spans can be told apart from compute.
func (st *serveState) probeLayers(tr *tracer, opBase int64) {
	for k := range serveProbeOps {
		r := &st.reqs[(k*7919)%len(st.reqs)]
		op := opBase + int64(k)
		root := tr.begin("probe", op, 0)
		id := tr.begin("topology.load", op, root)
		cfg, err := topology.Load(bytes.NewReader(r.body))
		tr.end(id)
		if err != nil {
			tr.end(root)
			continue
		}
		// The pool's outputs were checked byte for byte during set-up and
		// by the service; the probes only time the calls, so their results
		// and errors are dropped.
		id = tr.begin("core.hash", op, root)
		_, _ = core.CanonicalConfigHash(cfg)
		tr.end(id)
		id = tr.begin("core.bind", op, root)
		sc, err := core.NewScenario(cfg)
		tr.end(id)
		if err != nil {
			tr.end(root)
			continue
		}
		var buf bytes.Buffer
		switch r.kind {
		case "analyze":
			id = tr.begin("render.analyze", op, root)
			_ = render.Analyze(&buf, sc, false)
			tr.end(id)
			id = tr.begin("core.analyze", op, root)
			_, _ = sc.Analyze(sc.Sim.Approach)
			tr.end(id)
		case "backlog":
			id = tr.begin("render.backlog", op, root)
			_ = render.Backlog(&buf, sc, false)
			tr.end(id)
			id = tr.begin("core.backlogs", op, root)
			_, _ = sc.Backlogs()
			tr.end(id)
		case "validate":
			id = tr.begin("render.validate", op, root)
			_ = render.Validate(&buf, sc, core.SweepOptions{Workers: 1, Reps: 2, Seed: 1}, 20*simtime.Millisecond, true)
			tr.end(id)
		}
		tr.end(root)
	}
}

func serveDigest(st *serveState, shots []shot) string {
	h := sha256.New()
	for i, s := range shots {
		if s.ok {
			sum := sha256.Sum256(st.reqs[s.req].want)
			fmt.Fprintf(h, "%d %s %x\n", i, st.reqs[s.req].path, sum)
		} else {
			fmt.Fprintf(h, "%d failed\n", i)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
