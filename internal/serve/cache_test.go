package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleflight: concurrent gets of one key run the compute
// exactly once; followers coalesce onto the leader's flight and share
// its body. Run under -race in CI.
func TestCacheSingleflight(t *testing.T) {
	c := newResultCache(8)
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		<-release
		return []byte("body"), nil
	}

	const followers = 9
	var wg sync.WaitGroup
	results := make([][]byte, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.get("k", compute)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			results[i] = body
		}(i)
	}
	// Wait until every follower has coalesced onto the leader's flight,
	// then let the one compute finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", c.stats().Coalesced, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for %d concurrent identical gets, want 1", n, followers+1)
	}
	for i, body := range results {
		if string(body) != "body" {
			t.Fatalf("caller %d got %q", i, body)
		}
	}
	s := c.stats()
	if s.Misses != 1 || s.Coalesced != followers || s.Entries != 1 {
		t.Fatalf("stats %+v: want 1 miss, %d coalesced, 1 entry", s, followers)
	}
}

// TestCacheEvictionBound: the cache never holds more than max entries,
// evicts least-recently-used first, and a touch refreshes recency.
func TestCacheEvictionBound(t *testing.T) {
	c := newResultCache(2)
	fill := func(key string) ([]byte, bool, error) {
		return c.get(key, func() ([]byte, error) { return []byte(key), nil })
	}
	fill("a")
	fill("b")
	fill("a") // touch: a is now more recent than b
	fill("c") // evicts b
	if s := c.stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v: want 2 entries, 1 eviction", s)
	}
	if _, hit, _ := fill("a"); !hit {
		t.Fatal("a was touched; it must have survived the eviction")
	}
	if _, hit, _ := fill("b"); hit {
		t.Fatal("b was least recently used; it must have been evicted")
	}
	// The recompute of b evicted the next victim; the bound still holds.
	if s := c.stats(); s.Entries != 2 {
		t.Fatalf("stats %+v: entry bound violated", s)
	}
	for i := 0; i < 100; i++ {
		fill(fmt.Sprintf("k%d", i))
	}
	if s := c.stats(); s.Entries != 2 {
		t.Fatalf("stats %+v: entry bound violated under churn", s)
	}
}

// TestCacheDisabled: max <= 0 stores nothing — every sequential get
// recomputes — but the body still flows through.
func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	n := 0
	for i := 0; i < 3; i++ {
		body, hit, err := c.get("k", func() ([]byte, error) { n++; return []byte("x"), nil })
		if err != nil || hit || string(body) != "x" {
			t.Fatalf("get %d: body=%q hit=%v err=%v", i, body, hit, err)
		}
	}
	if n != 3 {
		t.Fatalf("%d computes, want 3 (storage disabled)", n)
	}
	if s := c.stats(); s.Entries != 0 {
		t.Fatalf("stats %+v: disabled cache stored entries", s)
	}
}

// TestCacheAliasBound: every entry may carry one alias, so under churn
// the key table stays within 2*max while the bodies stay within max.
func TestCacheAliasBound(t *testing.T) {
	const max = 4
	c := newResultCache(max)
	for i := 0; i < 10*max; i++ {
		key := fmt.Sprintf("k%d", i)
		c.get(key, func() ([]byte, error) { return []byte(key), nil })
		c.alias(key, "raw:"+key)
		if n := len(c.entries); n > 2*max {
			t.Fatalf("after %d keys: %d keys stored, want <= %d", i+1, n, 2*max)
		}
		if s := c.stats(); s.Entries > max {
			t.Fatalf("after %d keys: %d bodies stored, want <= %d", i+1, s.Entries, max)
		}
	}
}

// TestCacheAliasLifecycle: an alias answers for its entry, dies with it
// on eviction, and is dropped when the entry is re-aliased.
func TestCacheAliasLifecycle(t *testing.T) {
	c := newResultCache(2)
	fill := func(key string) {
		c.get(key, func() ([]byte, error) { return []byte(key), nil })
	}
	fill("a")
	c.alias("a", "raw:a1")
	if body, ok := c.lookup("raw:a1"); !ok || string(body) != "a" {
		t.Fatalf("alias lookup = %q, %v; want a's body", body, ok)
	}

	c.alias("a", "raw:a2")
	if _, ok := c.lookup("raw:a1"); ok {
		t.Error("the replaced alias still answers")
	}
	if body, ok := c.lookup("raw:a2"); !ok || string(body) != "a" {
		t.Errorf("new alias lookup = %q, %v; want a's body", body, ok)
	}

	fill("b")
	fill("c") // evicts a, the least recently used
	if _, ok := c.lookup("a"); ok {
		t.Fatal("a was least recently used; it must have been evicted")
	}
	if _, ok := c.lookup("raw:a2"); ok {
		t.Error("an evicted entry's alias still answers")
	}
	if n := len(c.entries); n != 2 {
		t.Errorf("%d keys after the eviction, want 2 (b, c; no stale alias)", n)
	}
}

// TestCacheDisabledStoresNoAlias: with storage disabled there is no
// entry to alias, so no key is kept at all.
func TestCacheDisabledStoresNoAlias(t *testing.T) {
	c := newResultCache(0)
	c.get("k", func() ([]byte, error) { return []byte("x"), nil })
	c.alias("k", "raw:k")
	if _, ok := c.lookup("raw:k"); ok {
		t.Error("a disabled cache answered from an alias")
	}
	if n := len(c.entries); n != 0 {
		t.Errorf("%d keys in a disabled cache, want 0", n)
	}
}

// TestCacheErrorNotStored: a failed compute is reported to its callers
// and never cached; the next get retries.
func TestCacheErrorNotStored(t *testing.T) {
	c := newResultCache(8)
	boom := errors.New("boom")
	if _, _, err := c.get("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	body, hit, err := c.get("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("retry: body=%q hit=%v err=%v (errors must not be cached)", body, hit, err)
	}
}

// TestCacheSingleflightPanic: a compute that panics fails its flight
// instead of wedging the key. The leader and a coalesced follower both
// get the error, nothing is stored, and the next get of the key computes
// afresh. Run under -race in CI.
func TestCacheSingleflightPanic(t *testing.T) {
	c := newResultCache(8)
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.get("k", func() ([]byte, error) {
			<-release
			panic("injected compute failure")
		})
		errs <- err
	}()
	waitFor(t, "the leader's flight", func() bool { return c.stats().Misses == 1 })
	go func() {
		_, _, err := c.get("k", func() ([]byte, error) {
			t.Error("a follower ran its own compute")
			return nil, nil
		})
		errs <- err
	}()
	waitFor(t, "the follower to coalesce", func() bool { return c.stats().Coalesced == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errComputePanicked) {
				t.Fatalf("err = %v, want errComputePanicked", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller of the panicked flight is still blocked")
		}
	}
	if n := c.stats().Entries; n != 0 {
		t.Fatalf("%d entries stored by a panicked compute", n)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		body, hit, err := c.get("k", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || hit || string(body) != "ok" {
			t.Errorf("retry: body=%q hit=%v err=%v", body, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the key is wedged: a later get blocks on the panicked flight")
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
