package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/traffic"
)

// This file keeps compiled Plans across calls. TreeEndToEnd and
// EdgeBacklogs look the structure of their (set, tree) up in a plan
// table: a hit skips routing, grouping and the topological sort and goes
// straight to the numeric evaluation; a miss compiles the plan and keeps
// it. The lookup key is a 64-bit hash of the structure, and every hit is
// confirmed field by field (Plan.matches), so a hash collision costs a
// recompilation, never a wrong result.
//
// Plans hold structure only, no numbers, so a grid of rates × loads keeps
// one plan per (family, load) however many rates it sweeps, and results
// are byte-identical whether the plan was compiled by this call, reused,
// or compiled and dropped with the table disabled.
//
// The process-wide table is on by default and invisible to callers.
// SetCacheEnabled(false) makes every call compile its own plan and keep
// none; ResetDefaultCache empties the table.

// planTableCap bounds the plans one table holds. Storing a plan into a
// full table empties it first, so a long-running service fed an endless
// stream of distinct structures holds at most this many.
const planTableCap = 1024

var cacheEnabled atomic.Bool

func init() { cacheEnabled.Store(true) }

// SetCacheEnabled turns the default plan table on or off process-wide and
// returns the previous setting. Disabling only changes performance, never
// results.
func SetCacheEnabled(on bool) bool { return cacheEnabled.Swap(on) }

// CacheEnabled reports whether the default plan table is consulted.
func CacheEnabled() bool { return cacheEnabled.Load() }

// planTable holds compiled plans keyed by structure hash. A nil
// *planTable keeps nothing. Safe for concurrent use.
type planTable struct {
	limit        int
	mu           sync.Mutex
	plans        map[uint64]*Plan
	groups       int // Σ Plan.groups over plans
	edges        int // Σ Plan.edges over plans
	hits, misses atomic.Uint64
}

var defaultPlans = planTable{limit: planTableCap}

// defaultTable returns the process-wide plan table, or nil when it is
// disabled (SetCacheEnabled(false)).
func defaultTable() *planTable {
	if !cacheEnabled.Load() {
		return nil
	}
	return &defaultPlans
}

// CacheStats is a snapshot of the plan table's counters and size.
type CacheStats struct {
	// Hits and Misses count plan lookups: a hit reuses a compiled plan, a
	// miss compiles one.
	Hits, Misses uint64
	// PathEntries is the number of plans held (each holds the routes of
	// its structure).
	PathEntries int
	// MuxEntries is the number of multiplexer groups those plans hold:
	// every non-empty source and destination group and every crossed
	// trunk.
	MuxEntries int
	// BacklogEntries is the number of directed edges those plans price:
	// every station uplink and destination port, every trunk direction.
	BacklogEntries int
}

func (t *planTable) stats() CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return CacheStats{
		Hits:           t.hits.Load(),
		Misses:         t.misses.Load(),
		PathEntries:    len(t.plans),
		MuxEntries:     t.groups,
		BacklogEntries: t.edges,
	}
}

func (t *planTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.plans, t.groups, t.edges = nil, 0, 0
	t.hits.Store(0)
	t.misses.Store(0)
}

// DefaultCacheStats returns the process-wide plan table's counters.
func DefaultCacheStats() CacheStats { return defaultPlans.stats() }

// ResetDefaultCache empties the process-wide plan table and zeroes its
// counters (cold state for benchmarks).
func ResetDefaultCache() { defaultPlans.reset() }

// plan returns the plan for the structure of (set, tree), validating the
// tree against the set's stations: from the table when it holds one,
// compiled (and kept, unless t is nil) otherwise.
func (t *planTable) plan(set *traffic.Set, tree *Tree) (*Plan, error) {
	if t == nil {
		stations := set.Stations()
		if err := tree.Validate(stations); err != nil {
			return nil, err
		}
		return compilePlan(set, tree, stations)
	}
	key := structureHash(set, tree)
	t.mu.Lock()
	p := t.plans[key]
	t.mu.Unlock()
	if p != nil && p.matches(set, tree) {
		if err := tree.Validate(p.stations); err != nil {
			return nil, err
		}
		t.hits.Add(1)
		return p, nil
	}
	stations := set.Stations()
	if err := tree.Validate(stations); err != nil {
		return nil, err
	}
	// Compiling under the lock makes concurrent misses on one structure
	// compile it once.
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.plans[key]; p != nil && p.matches(set, tree) {
		t.hits.Add(1)
		return p, nil
	}
	p, err := compilePlan(set, tree, stations)
	if err != nil {
		return nil, err
	}
	t.misses.Add(1)
	t.store(key, p)
	return p, nil
}

// store keeps p under key, replacing a colliding plan or emptying a full
// table first. The caller holds t.mu.
func (t *planTable) store(key uint64, p *Plan) {
	if old := t.plans[key]; old != nil {
		t.groups -= old.groups()
		t.edges -= old.edges()
	} else if len(t.plans) >= t.limit {
		t.plans, t.groups, t.edges = nil, 0, 0
	}
	if t.plans == nil {
		t.plans = make(map[uint64]*Plan)
	}
	t.plans[key] = p
	t.groups += p.groups()
	t.edges += p.edges()
}

// FNV-1a parameters, the mixing of structureHash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return hashWord(h, uint64(len(s)))
}

// structureHash hashes everything a plan is compiled from: the switch
// count, the links in order, every station placement, and each flow's
// endpoints in flow order.
func structureHash(set *traffic.Set, tree *Tree) uint64 {
	h := hashWord(fnvOffset, uint64(tree.Switches))
	for _, l := range tree.Links {
		h = hashWord(hashWord(h, uint64(l[0])), uint64(l[1]))
	}
	var placement uint64
	//rtlint:unordered a sum of per-entry hashes does not depend on the order
	for s, sw := range tree.StationSwitch {
		placement += hashWord(hashString(fnvOffset, s), uint64(sw))
	}
	h = hashWord(h, placement)
	for _, m := range set.Messages {
		h = hashString(hashString(h, m.Source), m.Dest)
	}
	return h
}
