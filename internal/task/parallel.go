package task

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// FindDecisionParallelCtx is FindDecision with the k >= 2 backtracking
// search split across workers and threaded with a context. The first
// decision variable's domain values become independent branches, each
// explored by its own goroutine with private assignment state over the
// shared read-only search setup; at workers <= 1 the search runs serially.
//
// The branches share one atomic node budget (nodeLimit <= 0 means
// unlimited). When a branch succeeds, only higher-indexed branches are
// cancelled; lower-indexed branches run to completion and the
// lowest-indexed success supplies the returned map, so the decision map is
// independent of scheduling. With a node limit, a success found by any
// surviving branch wins even if another branch exhausted the budget — the
// map is still a valid certificate — and ErrSearchLimit is reported only
// when no branch succeeds.
//
// Every branch's per-node abort probe additionally observes cancellation,
// so the search unwinds within one node expansion of ctx firing and the
// call returns ctx.Err() (unless some branch had already found a decision
// map, which is returned — it is a valid certificate regardless). The
// k = 1 consensus procedure is polynomial and always runs to completion.
func FindDecisionParallelCtx(ctx context.Context, a *Annotated, k int, nodeLimit int64, workers int) (DecisionMap, bool, error) {
	if err := a.Validate(); err != nil {
		return nil, false, err
	}
	if a.Complex.IsEmpty() {
		return DecisionMap{}, true, nil
	}
	if k <= 0 {
		return nil, false, fmt.Errorf("task: k must be positive, got %d", k)
	}
	if k == 1 {
		dm, ok := findConsensus(a)
		return dm, ok, nil
	}
	if ctx.Done() == nil {
		if workers <= 1 {
			return findBacktracking(a, k, nodeLimit)
		}
		return findBacktrackingParallel(a, k, nodeLimit, workers, nil)
	}
	var cancelled atomic.Bool
	stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	defer stop()
	var dm DecisionMap
	var ok bool
	var err error
	if workers <= 1 {
		dm, ok, err = findBacktrackingCancellable(a, k, nodeLimit, &cancelled)
	} else {
		dm, ok, err = findBacktrackingParallel(a, k, nodeLimit, workers, &cancelled)
	}
	if !ok && cancelled.Load() {
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, cerr
		}
	}
	return dm, ok, err
}

// findBacktrackingCancellable is findBacktracking with a cancellation flag
// probed at every node.
func findBacktrackingCancellable(a *Annotated, k int, nodeLimit int64, cancelled *atomic.Bool) (DecisionMap, bool, error) {
	s := newSearch(a, k)
	b := &branchRun{
		s:        s,
		assign:   make([]string, len(s.verts)),
		assigned: make([]bool, len(s.verts)),
		abort:    cancelled.Load,
	}
	if nodeLimit > 0 {
		remaining := nodeLimit
		b.budget = &remaining
	}
	ok, err := b.rec(0)
	if err == errAborted {
		// Cancellation unwound the search; the caller translates the flag
		// into ctx.Err().
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	return b.decisionMap(), true, nil
}

// branchOutcome records one first-variable branch's result.
type branchOutcome struct {
	dm  DecisionMap
	ok  bool
	err error
}

// findBacktrackingParallel runs the branch-split search; a non-nil
// cancelled flag is folded into every branch's abort probe, and a
// cancellation unwind surfaces as (nil, false, nil) for the caller to
// translate into ctx.Err().
func findBacktrackingParallel(a *Annotated, k int, nodeLimit int64, workers int, cancelled *atomic.Bool) (DecisionMap, bool, error) {
	s := newSearch(a, k)
	if len(s.order) == 0 {
		return DecisionMap{}, true, nil
	}
	v0 := s.order[0]
	dom := s.domains[v0]
	if len(dom) < 2 {
		if cancelled != nil {
			return findBacktrackingCancellable(a, k, nodeLimit, cancelled)
		}
		return findBacktracking(a, k, nodeLimit)
	}
	var remaining *int64
	if nodeLimit > 0 {
		r := nodeLimit
		remaining = &r
	}
	// best holds the lowest branch index that has succeeded so far; branches
	// above it abort at their next node.
	best := int64(len(dom))
	outcomes := make([]branchOutcome, len(dom))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for bi, val := range dom {
		wg.Add(1)
		go func(bi int, val string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if atomic.LoadInt64(&best) < int64(bi) || (cancelled != nil && cancelled.Load()) {
				outcomes[bi] = branchOutcome{err: errAborted}
				return
			}
			abort := func() bool { return atomic.LoadInt64(&best) < int64(bi) }
			if cancelled != nil {
				abort = func() bool {
					return cancelled.Load() || atomic.LoadInt64(&best) < int64(bi)
				}
			}
			b := &branchRun{
				s:        s,
				assign:   make([]string, len(s.verts)),
				assigned: make([]bool, len(s.verts)),
				budget:   remaining,
				abort:    abort,
			}
			// The root assignment consumes one node, as in the serial loop.
			if b.budget != nil && atomic.AddInt64(b.budget, -1) < 0 {
				outcomes[bi] = branchOutcome{err: ErrSearchLimit}
				return
			}
			b.assign[v0] = val
			b.assigned[v0] = true
			if !consistent(v0, s.facetOf, s.facetVerts, b.assign, b.assigned, s.domains, s.k) {
				return
			}
			ok, err := b.rec(1)
			if ok {
				// Lower the bar to this branch if no lower branch has won yet.
				for {
					cur := atomic.LoadInt64(&best)
					if cur < int64(bi) || atomic.CompareAndSwapInt64(&best, cur, int64(bi)) {
						break
					}
				}
				outcomes[bi] = branchOutcome{dm: b.decisionMap(), ok: true}
				return
			}
			outcomes[bi] = branchOutcome{err: err}
		}(bi, val)
	}
	wg.Wait()
	limited := false
	for _, o := range outcomes {
		if o.ok {
			return o.dm, true, nil
		}
		if o.err == ErrSearchLimit {
			limited = true
		}
	}
	if limited {
		return nil, false, ErrSearchLimit
	}
	return nil, false, nil
}
