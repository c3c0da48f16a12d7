// Package serve implements the rtether scenario-analysis service: a
// long-running HTTP/JSON front end over the same engine the CLI drives.
// A scenario JSON (the single currency of the whole repo) is POSTed to
//
//	POST /v1/analyze?e2e=0|1          — per-connection bound tables
//	POST /v1/backlog?dimension=0|1    — switch memory budget
//	POST /v1/validate?reps&seed&horizon_us&parallel — bounds vs simulation
//	POST /v1/sweep?reps&seed&approach&horizon_us&parallel — grid, streamed
//	GET  /v1/stats                    — cache/admission counters
//	GET  /healthz                     — liveness
//
// and the response body is byte-identical to the corresponding CLI
// subcommand's stdout: both sides call the same internal/render encoder,
// so there is nothing to drift. /v1/sweep streams its grid cells as
// NDJSON in deterministic grid order as workers complete them
// (core.RunGridStream); everything else is cached, and each request does
// only the work its outcome needs. The lookup order is:
//
//  1. exact replay — the SHA-256 of the raw body bytes plus the semantic
//     query parameters; a byte-identical repeat is answered without
//     decoding, hashing or binding;
//  2. canonical address — the hash of the canonical scenario JSON
//     (core.CanonicalConfigHash) plus the same parameters, so
//     reformatted-but-equal scenarios hit;
//  3. bind and compute — only now is the scenario bound, and concurrent
//     identical requests coalesce onto one simulation.
//
// Each stored body carries at most one replay alias, so the cache holds
// at most 2 × CacheEntries keys for CacheEntries bodies. Execution-only
// knobs (parallel) stay out of both keys: results are bit-identical at
// any worker count by the sweep engine's contract.
//
// Compute is guarded by a weighted-fair admission controller: analyze,
// backlog and validate are interactive (weight 4), sweeps are batch
// (weight 1, cost scaled by grid size), so a client saturating the
// service with sweeps cannot starve another client's analyze queries.
// Cache hits bypass admission entirely.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Config configures a Server.
type Config struct {
	// CacheEntries bounds the result cache; <= 0 disables storage
	// (request coalescing still applies).
	CacheEntries int
	// MaxInflight is the number of concurrent computes; <= 0 selects
	// GOMAXPROCS.
	MaxInflight int
	// Clock overrides the wall clock for wait/uptime statistics. Nil
	// selects the real clock. The simulator never reads it.
	Clock func() time.Time
}

// Server is the scenario-analysis service. It is an http.Handler; wire
// it into any http.Server.
type Server struct {
	mux      *http.ServeMux
	cache    *resultCache
	adm      *admission
	clock    func() time.Time
	started  time.Time
	computes atomic.Uint64

	// computeGate, when set by a test, runs inside every compute while
	// the admission slot is held — letting tests hold computes open to
	// provoke coalescing and contention deterministically.
	computeGate func()
}

// New builds the service.
func New(cfg Config) *Server {
	clock := cfg.Clock
	if clock == nil {
		clock = func() time.Time {
			//rtlint:wallclock service wait/uptime accounting; never feeds the simulator
			return time.Now()
		}
	}
	slots := cfg.MaxInflight
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		mux:     http.NewServeMux(),
		cache:   newResultCache(cfg.CacheEntries),
		adm:     newAdmission(slots, clock),
		clock:   clock,
		started: clock(),
	}
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/backlog", s.handleBacklog)
	s.mux.HandleFunc("/v1/validate", s.handleValidate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// maxBodyBytes bounds a POSTed scenario; the built-in real case is ~4KB,
// so 4MB is three orders of magnitude of headroom.
const maxBodyBytes = 4 << 20

// readScenario reads the raw request body under the 4MB bound. It does
// not decode: a byte-identical repeat is answered from these bytes'
// digest alone (see cached).
func readScenario(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, errors.New("scenario exceeds the 4MB body bound")
	}
	return body, nil
}

// decodeScenario decodes a scenario body. An empty body selects the
// built-in real case, matching the CLI's missing -config.
func decodeScenario(body []byte) (*topology.Config, error) {
	if len(bytes.TrimSpace(body)) == 0 {
		return topology.Default(), nil
	}
	return topology.Load(bytes.NewReader(body))
}

// badRequest marks a compute error that is the request's fault: the
// scenario decodes but does not bind. It answers 400, not 500.
type badRequest struct{ error }

// clientID names the admission principal of a request: the X-Client-Id
// header when present, else the peer host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// boolParam parses a 0/1/true/false query parameter, absent = false.
func boolParam(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%s: want a boolean, got %q", name, v)
	}
	return b, nil
}

// intParam parses a bounded integer query parameter.
func intParam(q url.Values, name string, def, min, max int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: want an integer, got %q", name, v)
	}
	if n < min || n > max {
		return 0, fmt.Errorf("%s: %d outside [%d, %d]", name, n, min, max)
	}
	return n, nil
}

// uint64Param parses a seed-style query parameter.
func uint64Param(q url.Values, name string, def uint64) (uint64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: want an unsigned integer, got %q", name, v)
	}
	return n, nil
}

// request is one parsed cacheable request: the semantic cache-key
// parameters (execution-only knobs excluded), the admission cost, and
// the response encoder over the bound scenario.
type request struct {
	params string
	cost   float64
	enc    func(io.Writer, *core.Scenario) error
}

// cached runs the shared pipeline of every non-streaming endpoint, in
// the package's lookup order: exact replay → canonical address → bind
// and compute. The query is parsed before the body is read, so the raw
// key needs no decode. The hash is taken before binding: binding folds
// defaults into the config and must not move the address. Binding runs
// inside the compute, before admission; a bind error answers 400 and is
// never stored. A successful canonical lookup or compute re-aliases the
// entry to this request's raw key, so the next byte-identical repeat
// replays.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, endpoint string, weight float64,
	build func(q url.Values) (request, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a scenario JSON (empty body = built-in real case)", http.StatusMethodNotAllowed)
		return
	}
	req, err := build(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw, err := readScenario(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prefix := endpoint + "?" + req.params + "#"
	digest := sha256.Sum256(raw)
	rawKey := prefix + "raw:" + hex.EncodeToString(digest[:])
	if body, ok := s.cache.lookup(rawKey); ok {
		reply(w, body, true)
		return
	}
	cfg, err := decodeScenario(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hash, err := core.CanonicalConfigHash(cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := prefix + hash
	body, hit, err := s.cache.get(key, func() ([]byte, error) {
		sc, err := core.NewScenario(cfg)
		if err != nil {
			return nil, badRequest{err}
		}
		if err := s.adm.acquire(r.Context(), clientID(r), weight, req.cost); err != nil {
			return nil, err
		}
		defer s.adm.release()
		if s.computeGate != nil {
			s.computeGate()
		}
		s.computes.Add(1)
		var buf bytes.Buffer
		if err := req.enc(&buf, sc); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		msg, status := err.Error(), http.StatusInternalServerError
		if errors.As(err, new(badRequest)) {
			status = http.StatusBadRequest
		}
		if errors.Is(err, errComputePanicked) {
			msg += " (scenario " + hash + ")"
		}
		http.Error(w, msg, status)
		return
	}
	s.cache.alias(key, rawKey)
	reply(w, body, hit)
}

// reply writes a cached endpoint's body with its X-Cache verdict.
func reply(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "analyze", 4, func(q url.Values) (request, error) {
		e2e, err := boolParam(q, "e2e")
		if err != nil {
			return request{}, err
		}
		return request{
			params: fmt.Sprintf("e2e=%v", e2e),
			cost:   1,
			enc:    func(w io.Writer, sc *core.Scenario) error { return render.Analyze(w, sc, e2e) },
		}, nil
	})
}

func (s *Server) handleBacklog(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "backlog", 4, func(q url.Values) (request, error) {
		dimension, err := boolParam(q, "dimension")
		if err != nil {
			return request{}, err
		}
		return request{
			params: fmt.Sprintf("dimension=%v", dimension),
			cost:   1,
			enc:    func(w io.Writer, sc *core.Scenario) error { return render.Backlog(w, sc, dimension) },
		}, nil
	})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "validate", 4, func(q url.Values) (request, error) {
		reps, err := intParam(q, "reps", 1, 1, 1000)
		if err != nil {
			return request{}, err
		}
		seed, err := uint64Param(q, "seed", 1)
		if err != nil {
			return request{}, err
		}
		parallel, err := intParam(q, "parallel", 0, 0, 1<<20)
		if err != nil {
			return request{}, err
		}
		// Defaults mirror the CLI flags (horizon 2s, set only when the
		// parameter is present) so default HTTP and CLI outputs align.
		horizonUs, err := intParam(q, "horizon_us", 2_000_000, 1, 1<<40)
		if err != nil {
			return request{}, err
		}
		horizonSet := q.Get("horizon_us") != ""
		opts := core.SweepOptions{Workers: parallel, Reps: reps, Seed: seed}
		horizon := simtime.Duration(horizonUs) * simtime.Microsecond
		return request{
			params: fmt.Sprintf("reps=%d&seed=%d&horizon_us=%d&horizon_set=%v", reps, seed, horizonUs, horizonSet),
			cost:   float64(2 * reps),
			enc: func(w io.Writer, sc *core.Scenario) error {
				return render.Validate(w, sc, opts, horizon, horizonSet)
			},
		}, nil
	})
}

// CellJSON is one /v1/sweep NDJSON line: a core.GridCell with explicit
// units. Lines stream in grid order (rates × loads, loads fastest) as
// soon as the ordered prefix of cells is complete.
type CellJSON struct {
	RateBps         int64 `json:"rate_bps"`
	ExtraRTs        int   `json:"extra_rts"`
	Connections     int   `json:"connections"`
	BoundWorstNs    int64 `json:"bound_worst_ns"`
	Violations      int   `json:"violations"`
	ObservedWorstNs int64 `json:"observed_worst_ns"`
	ObservedP99Ns   int64 `json:"observed_p99_ns"`
	Delivered       int   `json:"delivered"`
	Unsound         int   `json:"unsound"`
	Reps            int   `json:"reps"`
	Sound           bool  `json:"sound"`
}

func cellJSON(c core.GridCell) CellJSON {
	return CellJSON{
		RateBps:         c.Point.Rate.BitsPerSecond(),
		ExtraRTs:        c.Point.ExtraRTs,
		Connections:     c.Connections,
		BoundWorstNs:    int64(c.BoundWorst),
		Violations:      c.Violations,
		ObservedWorstNs: int64(c.ObservedWorst),
		ObservedP99Ns:   int64(c.ObservedP99),
		Delivered:       c.Delivered,
		Unsound:         c.Unsound,
		Reps:            c.Reps,
		Sound:           c.Sound(),
	}
}

// handleSweep streams the rates × loads grid cross-validation as NDJSON.
// Not cached: the value of a sweep is watching cells arrive. The grid
// spec and per-cell seeds are shared with `rtether sweep` (the grid
// section), so the streamed cells equal the CLI's table rows, in the
// same order, at any parallelism.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a scenario JSON (empty body = built-in real case)", http.StatusMethodNotAllowed)
		return
	}
	raw, err := readScenario(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	doc, err := decodeScenario(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sc, err := core.NewScenario(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	reps, err := intParam(q, "reps", 1, 1, 1000)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seed, err := uint64Param(q, "seed", 1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	parallel, err := intParam(q, "parallel", 0, 0, 1<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	horizonUs, err := intParam(q, "horizon_us", 500_000, 1, 1<<40)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var approach analysis.Approach
	switch q.Get("approach") {
	case "", "priority":
		approach = analysis.Priority
	case "fcfs":
		approach = analysis.FCFS
	default:
		http.Error(w, fmt.Sprintf("approach: want fcfs or priority, got %q", q.Get("approach")), http.StatusBadRequest)
		return
	}
	points := core.DefaultSweepGrid()
	if err := s.adm.acquire(r.Context(), clientID(r), 1, float64(len(points)*reps)); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.adm.release()
	if s.computeGate != nil {
		s.computeGate()
	}
	s.computes.Add(1)

	cfg := core.SweepGridConfig(approach, sc.Sim.TTechno, simtime.Duration(horizonUs)*simtime.Microsecond, reps)
	opts := core.SweepOptions{Workers: parallel, Reps: reps, Seed: seed}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	err = core.RunGridStream(points, cfg, opts, func(c core.GridCell) error {
		if err := enc.Encode(cellJSON(c)); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// The status line is long gone; a terminal error object is the
		// NDJSON equivalent of a non-200.
		enc.Encode(struct {
			Error string `json:"error"`
		}{err.Error()})
	}
}

// Stats is the /v1/stats response.
type Stats struct {
	UptimeMicros int64          `json:"uptime_micros"`
	Computes     uint64         `json:"computes"`
	Cache        CacheStats     `json:"cache"`
	Admission    AdmissionStats `json:"admission"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		UptimeMicros: s.clock().Sub(s.started).Microseconds(),
		Computes:     s.computes.Load(),
		Cache:        s.cache.stats(),
		Admission:    s.adm.stats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}
