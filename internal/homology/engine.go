package homology

import (
	"context"
	"strconv"
	"sync/atomic"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/topology"
)

// rankOf computes the rank of m over its field by the standard low-index
// column reduction: each column in turn cancels its lowest entry against
// the earlier column owning that row until its low row is unowned or the
// column is zero. The surviving columns are independent, and their count
// is the rank. A non-nil cancelled flag is probed once per column; on
// cancellation the returned rank is meaningless and the caller must not
// use it.
func rankOf(m colStore, cancelled *atomic.Bool) int {
	n := m.numCols()
	lowOwner := make(map[int]int, n)
	for j := 0; j < n; j++ {
		if cancelled != nil && cancelled.Load() {
			return 0
		}
		for {
			low := m.lowOf(j)
			if low < 0 {
				break
			}
			owner, ok := lowOwner[low]
			if !ok {
				lowOwner[low] = j
				break
			}
			m.addInto(j, owner)
		}
	}
	return len(lowOwner)
}

// Engine is the optionally memoized homology engine. The zero value is
// usable (no cache); NewEngine is the usual constructor. Every field runs
// the same pipeline on the caller's goroutine: coreduction (morse.go)
// collapses the acyclic bulk, then one low-index column reduction
// (rankOf) reduces the restricted boundary matrices in the field's
// column store (columns.go). The serial package-level functions
// (BettiZ2, BettiGFp, BettiQ) remain the reference implementations the
// test suite diffs this engine against.
type Engine struct {
	cache *Cache
}

// NewEngine returns an engine with the given memoization cache (nil
// disables caching). The int is unused; it keeps the signature the bench
// module calls.
func NewEngine(_ int, cache *Cache) *Engine {
	return &Engine{cache: cache}
}

// CacheStats reports the engine's cache counters; all zeros when the
// engine runs uncached.
func (e *Engine) CacheStats() (hits, misses uint64, entries int) {
	if e.cache == nil {
		return 0, 0, 0
	}
	return e.cache.Stats()
}

// BettiZ2Ctx returns the (non-reduced) GF(2) Betti numbers of c, identical
// to the package-level BettiZ2 but computed by the engine and memoized
// when the engine has a cache. The returned slice is owned by the
// caller. The reduction probes cancellation once per column and the
// call returns ctx.Err() once it fires (nothing is cached for an
// aborted computation). Concurrent calls for the same uncached complex
// are coalesced by the cache — one computes, the rest wait — and an
// obs.Tracker carried by the context has its "columns" counter bumped per
// reduced boundary matrix.
func (e *Engine) BettiZ2Ctx(ctx context.Context, c *topology.Complex) ([]int, error) {
	return e.BettiZ2CtxResume(ctx, c, nil, nil)
}

// BettiZ2CtxResume is BettiZ2Ctx with per-dimension rank checkpoints,
// the homology half of the job subsystem's resume story. When known
// (keyed by dimension d of ∂_d) holds the rank of every ∂_1..∂_dim, the
// ranks are trusted and the vector is restored without a reduction; a
// partial known set is ignored. A run that does reduce reports the rank
// of every original boundary matrix through emit once the whole vector
// is known. emit is never invoked for a run aborted by cancellation, so
// persisted ranks are always ranks of fully reduced matrices. Either of
// known and emit may be nil.
//
// The caller owns key validity: known must have been recorded for a
// complex with this CanonicalHash (the job checkpoint log stores the
// hash alongside each rank and drops mismatches on restore).
func (e *Engine) BettiZ2CtxResume(ctx context.Context, c *topology.Complex, known map[int]int, emit func(d, rank int)) ([]int, error) {
	if e.cache == nil {
		return e.computeBettiResume(ctx, c, known, emit)
	}
	return e.cache.do(ctx, c.CanonicalHash(), func() ([]int, error) {
		return e.computeBettiResume(ctx, c, known, emit)
	})
}

// BettiZ2UpToCtx is BettiZ2Ctx capped at maxDim: Betti numbers for
// dimensions 0..min(maxDim, dim) only, reducing only the boundary matrices
// ∂_1..∂_{maxDim+1} those dimensions need. Connectivity questions ask
// about low dimensions of high-dimensional complexes, so the cap skips
// exactly the top-dimensional matrices that dominate reduction cost. A cap
// at or above the complex dimension delegates to the full computation
// (and its plain cache key); a genuinely capped vector is cached under a
// cap-decorated key so it can never be mistaken for the full vector, and
// a full vector already cached for the complex answers capped queries by
// prefix without any computation.
func (e *Engine) BettiZ2UpToCtx(ctx context.Context, c *topology.Complex, maxDim int) ([]int, error) {
	if maxDim >= c.Dim() {
		return e.BettiZ2Ctx(ctx, c)
	}
	if maxDim < 0 {
		return nil, nil
	}
	if e.cache == nil {
		return e.computeBettiCapped(ctx, c, maxDim)
	}
	hash := c.CanonicalHash()
	if full, ok := e.cache.Peek(hash); ok {
		return full[:maxDim+1], nil
	}
	return e.cache.do(ctx, hash+"|upto="+strconv.Itoa(maxDim), func() ([]int, error) {
		return e.computeBettiCapped(ctx, c, maxDim)
	})
}

func (e *Engine) computeBettiCapped(ctx context.Context, c *topology.Complex, maxDim int) ([]int, error) {
	return e.computeBettiMorse(ctx, c, maxDim, 2, nil)
}

// ReducedBettiZ2Ctx mirrors the package-level ReducedBettiZ2 on the
// engine; see BettiZ2Ctx.
func (e *Engine) ReducedBettiZ2Ctx(ctx context.Context, c *topology.Complex) ([]int, error) {
	betti, err := e.BettiZ2Ctx(ctx, c)
	if err != nil || len(betti) == 0 {
		return nil, err
	}
	betti[0]--
	return betti, nil
}

// IsKConnectedCtx mirrors the package-level IsKConnected on the engine;
// see BettiZ2Ctx. The verdict needs reduced Betti numbers only up to
// dimension k, so the reduction is capped there (BettiZ2UpToCtx).
func (e *Engine) IsKConnectedCtx(ctx context.Context, c *topology.Complex, k int) (bool, error) {
	if k < -1 {
		return true, nil
	}
	if c.IsEmpty() {
		return false, nil
	}
	if k == -1 {
		return true, nil
	}
	betti, err := e.BettiZ2UpToCtx(ctx, c, k)
	if err != nil {
		return false, err
	}
	return reducedVanishUpTo(betti, k), nil
}

// reducedVanishUpTo reports whether the reduced Betti numbers derived
// from the (non-reduced) vector betti vanish in dimensions 0..k.
func reducedVanishUpTo(betti []int, k int) bool {
	for d := 0; d <= k && d < len(betti); d++ {
		v := betti[d]
		if d == 0 {
			v--
		}
		if v != 0 {
			return false
		}
	}
	return true
}

// ConnectivityCtx mirrors the package-level Connectivity on the engine;
// see BettiZ2Ctx.
func (e *Engine) ConnectivityCtx(ctx context.Context, c *topology.Complex) (int, error) {
	betti, err := e.BettiZ2Ctx(ctx, c)
	if err != nil {
		return 0, err
	}
	return ConnectivityFromBetti(betti), nil
}

// BettiGFpCtx returns the Betti numbers of c over GF(p), for a prime p
// in [2, 2^31), through the same coreduction and column reduction as
// BettiZ2Ctx; p = 2 runs the GF(2) store. The reduction probes ctx once
// per column. Results are not cached.
func (e *Engine) BettiGFpCtx(ctx context.Context, c *topology.Complex, p int64) ([]int, error) {
	if err := checkModulus(p); err != nil {
		return nil, err
	}
	return e.computeBettiMorse(ctx, c, c.Dim(), p, nil)
}

// BettiQCtx returns the exact Betti numbers of c over Q, like
// BettiGFpCtx but on the fraction-free integer store.
func (e *Engine) BettiQCtx(ctx context.Context, c *topology.Complex) ([]int, error) {
	return e.computeBettiMorse(ctx, c, c.Dim(), fieldQ, nil)
}

// computeBettiResume computes the full GF(2) Betti vector with rank
// checkpoints; see BettiZ2CtxResume for the contract. A checkpoint holding the rank of
// every boundary matrix ∂_1..∂_dim restores the Betti vector by f-vector
// arithmetic, b_d = f_d − r_d − r_{d+1}, without building a matrix. A
// partial checkpoint is ignored: the restricted reduction costs less
// than the skipped dimensions would save.
func (e *Engine) computeBettiResume(ctx context.Context, c *topology.Complex, known map[int]int, emit func(d, rank int)) ([]int, error) {
	dim := c.Dim()
	if dim < 1 || !coversAllRanks(known, dim) {
		return e.computeBettiMorse(ctx, c, dim, 2, emit)
	}
	fv := c.FVector()
	ranks := make([]int, dim+2) // ∂_0 and ∂_{dim+1} are zero
	for d := 1; d <= dim; d++ {
		ranks[d] = known[d]
	}
	betti := make([]int, dim+1)
	for d := 0; d <= dim; d++ {
		betti[d] = fv[d] - ranks[d] - ranks[d+1]
	}
	obs.FromContext(ctx).Counter("ranks_restored").Add(uint64(dim))
	return betti, nil
}

// coversAllRanks reports whether known holds a rank for every boundary
// dimension 1..dim.
func coversAllRanks(known map[int]int, dim int) bool {
	for d := 1; d <= dim; d++ {
		if _, ok := known[d]; !ok {
			return false
		}
	}
	return true
}

// cancelFlag plants an atomic flag the column reductions probe, set when
// ctx fires; nil when ctx can never fire. stop releases the watcher.
func cancelFlag(ctx context.Context) (cancelled *atomic.Bool, stop func()) {
	if ctx.Done() == nil {
		return nil, func() {}
	}
	cancelled = new(atomic.Bool)
	release := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	return cancelled, func() { release() }
}

// computeBettiMorse computes Betti numbers 0..min(maxDim, dim) of c over
// field p (a prime for GF(p), fieldQ for Q). It collapses c first, then
// reduces only the restricted boundary matrices ∂_1..∂_{maxDim+1} of the
// critical cells, in order. The "columns" counter counts the critical
// columns reduced. Emitted checkpoint ranks are translated back to ranks
// of the original matrices; emission needs the whole Betti vector, so it
// only happens on uncapped runs.
func (e *Engine) computeBettiMorse(ctx context.Context, c *topology.Complex, maxDim int, p int64, emit func(d, rank int)) ([]int, error) {
	dim := c.Dim()
	if dim < 0 || maxDim < 0 {
		return nil, nil
	}
	// The cancel flag is set from another goroutine, so an already
	// cancelled ctx is caught here, before any work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	top := min(maxDim, dim)
	hi := min(top+1, dim)
	cancelled, stop := cancelFlag(ctx)
	defer stop()
	tr := obs.FromContext(ctx)
	cr, ok := coreduce(c, cancelled)
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	cr.publish(tr)
	colCtr := tr.Counter("columns")
	ranks := make([]int, dim+2)
	for d := 1; d <= hi; d++ {
		// With no critical columns or no critical rows, ∂_d has rank 0:
		// on pseudospheres every critical cell is top-dimensional, so no
		// matrix is built at all.
		if cr.criticalCount(d) == 0 || cr.criticalCount(d-1) == 0 {
			continue
		}
		ranks[d] = cr.rank(d, p, cancelled)
		colCtr.Add(uint64(cr.criticalCount(d)))
	}
	if cancelled != nil && cancelled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	betti := cr.betti(ranks, top)
	if emit != nil && top == dim {
		// Translate back: betti[d] = f_d - r_d - r_{d+1} with r_{dim+1} = 0,
		// so the original ranks telescope down from the top dimension.
		counts := c.FVector()
		orig := 0
		for d := dim; d >= 1; d-- {
			orig = counts[d] - betti[d] - orig
			emit(d, orig)
		}
	}
	return betti, nil
}
