package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// resultCache is the content-addressed result cache in front of the
// service's compute: finished response bodies keyed by the request's
// canonical identity (endpoint + semantic parameters + the SHA-256 of
// the canonical scenario JSON, see Server.cached). Three properties
// matter beyond plain LRU:
//
//   - Singleflight: concurrent requests for the same key coalesce onto
//     one compute; followers block on the leader's flight and share its
//     body. A stampede of identical POSTs costs one simulation.
//   - Content addressing: the key hashes the *canonical* scenario, so
//     reformatted-but-equal scenario JSON hits the same entry.
//   - Exact replay: each entry carries at most one alias key, the
//     digest of the raw request bytes that last reached it, so a
//     byte-identical repeat is answered by lookup without decoding.
//     An alias lives and dies with its entry: the cache holds at most
//     max bodies and 2*max keys.
//
// Bodies are immutable once inserted (callers must not mutate the
// returned slice), so sharing bytes across requests is safe.
type resultCache struct {
	mu       sync.Mutex
	max      int                      // entry bound; <= 0 disables storage (coalescing stays)
	entries  map[string]*list.Element // canonical keys and aliases alike
	order    *list.List               // front = most recently used
	inflight map[string]*flight

	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

type cacheEntry struct {
	key   string
	alias string // "" = none
	body  []byte
}

// flight is one in-progress compute; followers wait on done.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:      max,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flight),
	}
}

// lookup returns the stored body for key, a canonical key or an alias,
// without computing. Only a hit is counted: a miss falls through to get,
// which counts it.
func (c *resultCache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).body, true
}

// alias points alias at the stored entry of key, replacing the entry's
// previous alias. Nothing is stored when key has no entry: storage is
// disabled, the compute failed, or the entry was already evicted.
func (c *resultCache) alias(key, alias string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.alias == alias {
		return
	}
	if e.alias != "" {
		delete(c.entries, e.alias)
	}
	e.alias = alias
	c.entries[alias] = el
}

// get returns the body for key, computing it at most once across
// concurrent callers. The bool reports whether the body came from the
// cache (a stored entry or a coalesced flight) rather than a fresh
// compute by this caller. Failed computes are never stored; a compute
// that panics fails its flight with errComputePanicked.
func (c *resultCache) get(key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return body, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.body, true, f.err
	}
	c.misses++
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.body, f.err = runCompute(compute)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && c.max > 0 {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: f.body})
		for c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			e := oldest.Value.(*cacheEntry)
			delete(c.entries, e.key)
			if e.alias != "" {
				delete(c.entries, e.alias)
			}
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.body, false, f.err
}

// errComputePanicked marks the error of a flight whose compute panicked.
var errComputePanicked = errors.New("serve: compute panicked")

// runCompute runs one flight's compute, turning a panic into an error so
// the flight still ends: its inflight entry is deleted and done closed,
// and leader and followers alike get the error instead of later requests
// for the key blocking forever on a flight that never lands.
func runCompute(compute func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("%w: %v", errComputePanicked, r)
		}
	}()
	return compute()
}

// CacheStats is the cache counter snapshot exposed on /v1/stats.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}
