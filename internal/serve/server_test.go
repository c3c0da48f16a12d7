package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/topology"
)

const heteroFixture = "../topology/testdata/dual_hetero.json"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func statsOf(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAnalyzeMatchesRender pins the tentpole contract: the /v1/analyze
// body is the byte-for-byte output of the shared encoder the CLI's
// `rtether analyze` writes to stdout.
func TestAnalyzeMatchesRender(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	resp, body := post(t, ts, "/v1/analyze?e2e=1", fixture)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}

	sc, err := core.LoadScenario(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := render.Analyze(&want, sc, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("HTTP body diverged from the shared encoder:\n--- HTTP ---\n%s\n--- render ---\n%s", body, want.Bytes())
	}
}

// TestRepeatPostIsCacheHit: the second identical POST is served from the
// cache (one simulation total, visible on /v1/stats), and a
// reformatted-but-equal scenario hits the same content address.
func TestRepeatPostIsCacheHit(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	_, first := post(t, ts, "/v1/analyze", fixture)
	resp, second := post(t, ts, "/v1/analyze", fixture)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache returned a different body")
	}

	var compact bytes.Buffer
	if err := json.Compact(&compact, fixture); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), fixture) {
		t.Fatal("fixture was already compact; the test proves nothing")
	}
	resp, third := post(t, ts, "/v1/analyze", compact.Bytes())
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("compacted scenario X-Cache = %q, want hit (content addressing is format-insensitive)", got)
	}
	if !bytes.Equal(first, third) {
		t.Error("compacted scenario returned a different body")
	}

	st := statsOf(t, ts)
	if st.Computes != 1 || st.Cache.Misses != 1 || st.Cache.Hits != 2 {
		t.Errorf("stats %+v: want 1 compute, 1 miss, 2 hits", st)
	}
}

// TestConcurrentIdenticalPosts: a stampede of identical POSTs coalesces
// onto one simulation. The compute gate holds the leader open until
// every follower has joined its flight, so the coalescing is provoked
// deterministically, not by timing luck. Run under -race in CI.
func TestConcurrentIdenticalPosts(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	const followers = 5
	release := make(chan struct{})
	s.computeGate = func() { <-release }

	var wg sync.WaitGroup
	bodies := make([][]byte, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = post(t, ts, "/v1/analyze?e2e=1", fixture)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", s.cache.stats().Coalesced, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	st := statsOf(t, ts)
	if st.Computes != 1 {
		t.Errorf("%d simulations for %d concurrent identical POSTs, want 1", st.Computes, followers+1)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got a different body", i)
		}
	}
}

// TestConcurrentComputePanic: a compute that panics answers 500 naming
// the scenario's hash — to the leader and to a follower coalesced onto
// its flight — and leaves the scenario servable: the next POST of it
// computes and answers 200. Run under -race in CI.
func TestConcurrentComputePanic(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := topology.Load(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.CanonicalConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	release := make(chan struct{})
	var injected atomic.Bool
	s.computeGate = func() {
		if injected.CompareAndSwap(false, true) {
			<-release
			panic("injected compute failure")
		}
	}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, "/v1/analyze", fixture)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	waitFor(t, "the second POST to coalesce", func() bool { return s.cache.stats().Coalesced == 1 })
	close(release)
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusInternalServerError || !strings.Contains(string(bodies[i]), hash) {
			t.Errorf("caller %d: status %d, body %q; want 500 naming scenario %s", i, codes[i], bodies[i], hash)
		}
	}

	resp, body := post(t, ts, "/v1/analyze", fixture)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("after the panic: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
}

// TestSweepStreamDeterministic: the NDJSON stream carries exactly the
// cells core.RunGrid computes — same grid, same seeds, same order — and
// the bytes are identical at any parallelism.
func TestSweepStreamDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 4})
	const query = "/v1/sweep?horizon_us=20000&seed=7&parallel=%s"
	resp, serial := post(t, ts, strings.Replace(query, "%s", "1", 1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, serial)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	_, parallel := post(t, ts, strings.Replace(query, "%s", "4", 1), nil)
	if !bytes.Equal(serial, parallel) {
		t.Error("sweep stream bytes differ between parallel=1 and parallel=4")
	}

	sc, err := core.NewScenario(topology.Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SweepGridConfig(analysis.Priority, sc.Sim.TTechno, 20*simtime.Millisecond, 1)
	cells, err := core.RunGrid(core.DefaultSweepGrid(), cfg, core.SweepOptions{Workers: 0, Reps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(serial)), "\n")
	if len(lines) != len(cells) {
		t.Fatalf("%d NDJSON lines, want %d grid cells", len(lines), len(cells))
	}
	for i, line := range lines {
		var got CellJSON
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != cellJSON(cells[i]) {
			t.Errorf("cell %d: streamed %+v, want %+v", i, got, cellJSON(cells[i]))
		}
	}
}

// TestValidateMatchesRender: /v1/validate equals the shared encoder's
// output for the same parameters, at a different worker count — the
// engine's worker-independence carried through HTTP.
func TestValidateMatchesRender(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	resp, body := post(t, ts, "/v1/validate?reps=2&seed=5&horizon_us=20000&parallel=2", fixture)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	sc, err := core.LoadScenario(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	opts := core.SweepOptions{Workers: 1, Reps: 2, Seed: 5}
	if err := render.Validate(&want, sc, opts, 20*simtime.Millisecond, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("HTTP body diverged from the shared encoder:\n--- HTTP ---\n%s\n--- render ---\n%s", body, want.Bytes())
	}
}

// TestBadRequests: malformed inputs get 4xx, not computes. A scenario
// that decodes but does not bind is found only on the compute path; it
// still answers 400, and a repeat of it is neither replayed nor cached.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	unbound := strings.Replace(string(fixture), `"sim": {`,
		`"sim": {"queue_capacities_bytes": {"sw0->nowhere": 100},`, 1)
	if unbound == string(fixture) {
		t.Fatal("fixture has no sim section to extend")
	}
	if _, err := topology.Load(strings.NewReader(unbound)); err != nil {
		t.Fatalf("the unbindable scenario must pass decoding: %v", err)
	}
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"GET analyze", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"GET sweep", http.MethodGet, "/v1/sweep", "", http.StatusMethodNotAllowed},
		{"bad JSON", http.MethodPost, "/v1/analyze", "{not json", http.StatusBadRequest},
		{"bad e2e", http.MethodPost, "/v1/analyze?e2e=banana", "", http.StatusBadRequest},
		{"bad approach", http.MethodPost, "/v1/sweep?approach=wrr", "", http.StatusBadRequest},
		{"zero reps", http.MethodPost, "/v1/validate?reps=0", "", http.StatusBadRequest},
		{"bad seed", http.MethodPost, "/v1/validate?seed=-1", "", http.StatusBadRequest},
		{"unbindable", http.MethodPost, "/v1/analyze", unbound, http.StatusBadRequest},
		{"unbindable again", http.MethodPost, "/v1/analyze", unbound, http.StatusBadRequest},
		{"unbindable sweep", http.MethodPost, "/v1/sweep", unbound, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/v1/analyze", strings.Repeat(" ", maxBodyBytes+1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
	st := statsOf(t, ts)
	if st.Computes != 0 {
		t.Errorf("%d computes from pure 4xx traffic, want 0", st.Computes)
	}
	if st.Cache.Entries != 0 {
		t.Errorf("%d cache entries from pure 4xx traffic, want 0", st.Cache.Entries)
	}
}

// TestExactReplay: one scenario sent as the fixture bytes, the same bytes
// again, compacted bytes, then the fixture bytes once more gets one body
// and one compute. The byte-identical repeats replay from the raw-body
// alias, the compacted one hits the canonical address. The query
// parameters are part of both keys: e2e=0 never answers from e2e=1's
// alias.
func TestExactReplay(t *testing.T) {
	fixture, err := os.ReadFile(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fixture); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 2})
	var first []byte
	for i, body := range [][]byte{fixture, fixture, compact.Bytes(), fixture} {
		resp, got := post(t, ts, "/v1/analyze?e2e=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if i == 0 {
			first = got
			continue
		}
		if x := resp.Header.Get("X-Cache"); x != "hit" {
			t.Errorf("request %d: X-Cache = %q, want hit", i, x)
		}
		if !bytes.Equal(got, first) {
			t.Errorf("request %d: body differs from the first", i)
		}
	}
	if n := s.Stats().Computes; n != 1 {
		t.Errorf("%d computes, want 1", n)
	}

	// The e2e=1 entry is aliased to the fixture bytes; the same bytes
	// under e2e=0 must miss and render the single-hop model.
	resp, single := post(t, ts, "/v1/analyze?e2e=0", fixture)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("e2e=0: status %d, X-Cache %q; want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	sc, err := core.LoadScenario(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := render.Analyze(&want, sc, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single, want.Bytes()) {
		t.Error("e2e=0 answered with another body than the single-hop encoder's")
	}
	resp, again := post(t, ts, "/v1/analyze?e2e=1", fixture)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(again, first) {
		t.Errorf("e2e=1 after e2e=0: X-Cache %q, same body %v; want a hit on the e2e=1 body",
			resp.Header.Get("X-Cache"), bytes.Equal(again, first))
	}
	if n := s.Stats().Computes; n != 2 {
		t.Errorf("%d computes, want 2 (one per e2e value)", n)
	}
}

// TestHealthAndStats: the liveness probe and the counter endpoint.
func TestHealthAndStats(t *testing.T) {
	clk := &fakeClock{}
	s, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 3, Clock: clk.now})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok\n" {
		t.Errorf("healthz = %q", b)
	}
	clk.advance(3 * time.Second)
	st := statsOf(t, ts)
	if st.UptimeMicros != (3 * time.Second).Microseconds() {
		t.Errorf("uptime %dµs, want 3s on the injected clock", st.UptimeMicros)
	}
	if st.Admission.Slots != 3 {
		t.Errorf("slots %d, want 3", st.Admission.Slots)
	}
	_ = s
}
