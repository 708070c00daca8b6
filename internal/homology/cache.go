package homology

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache memoizes Betti numbers keyed by topology.Complex.CanonicalHash.
// The Mayer–Vietoris-style experiments repeatedly query unions,
// intersections, links, and skeleta of the same complexes; a shared Cache
// makes each distinct complex pay for reduction exactly once. A Cache is
// safe for concurrent use by any number of goroutines and may be shared
// between engines.
//
// Concurrent requests for the same missing key are coalesced: the first
// caller computes, later callers block on the in-flight computation
// instead of duplicating the reduction (a cache stampede). Waiters are
// counted separately from hits and misses.
type Cache struct {
	mu       sync.RWMutex
	betti    map[string][]int
	inflight map[string]*flight
	backing  Backing
	hits     atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	backHits atomic.Uint64
}

// Backing is an optional second cache level consulted on an in-memory
// miss and populated after a successful compute — typically a disk store,
// making results survive process restarts. Get reports whether the key
// was present; Put is best-effort (a backing that fails to persist simply
// loses the cross-restart benefit). Both must be safe for concurrent use.
// The singleflight layer guarantees Get and Put are called at most once
// per in-memory miss, never once per waiter. Get must return a slice the
// cache may hand to the caller (a fresh decode, not shared storage); Put
// receives a private copy it may retain.
type Backing interface {
	Get(key string) ([]int, bool)
	Put(key string, betti []int)
}

// flight is one in-progress computation; betti and err are written before
// done is closed and read only after.
type flight struct {
	done  chan struct{}
	betti []int
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		betti:    make(map[string][]int),
		inflight: make(map[string]*flight),
	}
}

// do returns the cached Betti numbers for key, computing them with compute
// on a miss. If another goroutine is already computing the same key, do
// waits for that computation instead of starting its own — unless ctx
// fires first, in which case ctx.Err() is returned. A compute error is
// propagated to every waiter and nothing is stored, so a later call
// retries. The returned slice is owned by the caller.
func (c *Cache) do(ctx context.Context, key string, compute func() ([]int, error)) ([]int, error) {
	c.mu.Lock()
	if c.betti == nil {
		c.betti = make(map[string][]int)
	}
	if c.inflight == nil {
		c.inflight = make(map[string]*flight)
	}
	if betti, ok := c.betti[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return copyBetti(betti), nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			return copyBetti(f.betti), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	backing := c.backing
	c.mu.Unlock()

	betti, err, fromBacking := []int(nil), error(nil), false
	if backing != nil {
		betti, fromBacking = backing.Get(key)
	}
	if fromBacking {
		c.backHits.Add(1)
	} else {
		c.misses.Add(1)
		betti, err = compute()
	}
	// f.betti is shared with waiters while the compute's return value is
	// handed to this caller, which may mutate it (ReducedBettiZ2Ctx decrements
	// b0 in place) — so the flight and the cache keep a private copy.
	var cp []int
	if err == nil {
		cp = copyBetti(betti)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.betti[key] = cp
	}
	c.mu.Unlock()
	f.betti, f.err = cp, err
	close(f.done)
	if err == nil && backing != nil && !fromBacking {
		backing.Put(key, cp)
	}
	return betti, err
}

// Peek returns the cached Betti numbers for key if they are resident in
// memory: no compute, no waiting on an in-flight computation, no backing
// consultation. The dimension-capped reduction uses it to answer capped
// queries by prefix of an already-known full vector. The returned slice
// is owned by the caller; a hit counts toward the hit counter.
func (c *Cache) Peek(key string) ([]int, bool) {
	c.mu.RLock()
	betti, ok := c.betti[key]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return copyBetti(betti), true
}

// SetBacking installs (or clears, with nil) the second cache level. Set
// it before sharing the cache; installing a backing does not retroactively
// consult it for keys already cached in memory.
func (c *Cache) SetBacking(b Backing) {
	c.mu.Lock()
	c.backing = b
	c.mu.Unlock()
}

// BackingHits returns how many in-memory misses were satisfied by the
// backing level instead of a fresh compute.
func (c *Cache) BackingHits() uint64 {
	return c.backHits.Load()
}

// Len returns the number of distinct complexes cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.betti)
}

// Stats returns the hit and miss counters and the entry count.
func (c *Cache) Stats() (hits, misses uint64, entries int) {
	return c.hits.Load(), c.misses.Load(), c.Len()
}

// Waits returns how many lookups blocked on another goroutine's in-flight
// computation of the same key instead of recomputing it.
func (c *Cache) Waits() uint64 {
	return c.waits.Load()
}

func copyBetti(betti []int) []int {
	if betti == nil {
		return nil
	}
	out := make([]int, len(betti))
	copy(out, betti)
	return out
}
