package roundop

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
)

// Options sets how Build runs. No field changes the complex it returns.
type Options struct {
	// Workers is the number of goroutines running shards; at <= 1 the
	// build runs on the caller's goroutine.
	Workers int
	// Checkpoint, when non-nil, persists progress at shard boundaries and
	// resumes from what a previous run persisted (see Checkpointer).
	Checkpoint Checkpointer
	// FlushEvery is the number of completed shards batched into one
	// Checkpoint.Flush (at least 1). It is unused without a Checkpoint.
	// Each worker batches the shards it runs itself, so with W workers
	// up to W·(FlushEvery−1) completed shards sit in unfinished batches,
	// and a SIGKILL loses those, plus any full batch not yet flushed.
	FlushEvery int
}

// Build returns the iterated complex R^r(S) of op over the input simplex:
// the union over the facets T of one round of R^{r-1}(T), per the
// inductive definition shared by Sections 6–8. Intermediate rounds only
// thread views forward; only the final round's global states become
// simplexes of the r-round complex, and R^0(S) is the closure of S.
//
// The first round's branches are cut into the shards of PlanShards, and
// one claim loop runs them. At Workers <= 1 it runs on the caller's
// goroutine and writes straight into the result; with more workers each
// goroutine accumulates into a private result and the results are merged
// once at the end. Either way the complex — a set, whose accessors all
// sort — is independent of worker count and scheduling, and its
// CanonicalHash agrees bit for bit across them.
//
// The claim loop checks ctx before every shard: after cancellation Build
// returns ctx.Err() once each worker finishes the shard in hand. An
// obs.Tracker carried by ctx (obs.FromContext) has its "facets" counter
// bumped by each shard's final-round facet insertions, so a fresh build
// of an in-tree operator ends with the counter at EstimateFacets.
//
// With a Checkpoint, shards a previous run persisted are skipped and
// their partial result restored; each claim loop runs its shards into a
// private batch that is handed to Checkpoint.Flush every FlushEvery shards
// before it is merged into the result. On cancellation every loop hands
// over its partial batch, which is flushed too, so a SIGTERM mid-build
// loses at most the shards in flight, never completed ones. The result is
// the same complex, resumed or not, because shards partition the facet
// product and the complex is a set.
func Build(ctx context.Context, op Operator, input topology.Simplex, r int, o Options) (*pc.Result, error) {
	if r < 0 {
		return nil, fmt.Errorf("roundop: negative round count %d", r)
	}
	res := pc.NewResult()
	if r == 0 {
		res.AddFacet(pc.InputViews(input))
		return res, nil
	}
	plan, err := PlanShards(op, input, r)
	if err != nil {
		return nil, err
	}
	todo, err := restore(ctx, plan, res, o.Checkpoint)
	if err != nil {
		return nil, err
	}
	if len(todo) == 0 {
		return res, nil
	}
	d := &drain{ctx: ctx, plan: plan, todo: todo, facets: obs.FromContext(ctx).Counter("facets")}
	workers := min(max(o.Workers, 1), len(todo))
	switch {
	case o.Checkpoint != nil:
		err = d.checkpointed(res, workers, max(o.FlushEvery, 1), o.Checkpoint)
	case workers == 1:
		d.claim(res, len(todo))
		err = d.stopped()
	default:
		err = d.pooled(res, workers)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// drain hands a build's pending shards out, one at a time, to claim
// loops running on any number of goroutines.
type drain struct {
	ctx    context.Context
	plan   *ShardPlan
	todo   []int // indices of the shards still to run, ascending
	next   atomic.Int64
	err    atomic.Pointer[error]
	facets *obs.Counter
}

// claim is the shard claim loop. It runs the next pending shard into
// into until it has run limit shards, the shards run out, a shard fails,
// or ctx is cancelled, and returns the indices of the shards it
// completed — none when a shard failed, since into then holds part of
// that shard. It reads ctx.Err() directly, so cancellation is
// synchronous: once cancel() returns, no loop claims another shard (the
// checkpoint tests rely on this bound).
func (d *drain) claim(into *pc.Result, limit int) []int {
	var ran []int
	for len(ran) < limit && d.ctx.Err() == nil && d.err.Load() == nil {
		j := d.next.Add(1) - 1
		if j >= int64(len(d.todo)) {
			break
		}
		n, err := runShard(into, d.plan.jobs[d.todo[j]], d.plan.r)
		if err != nil {
			d.fail(err)
			return nil
		}
		d.facets.Add(uint64(n))
		ran = append(ran, d.todo[j])
	}
	return ran
}

// fail records the first error that stops the claim loops.
func (d *drain) fail(err error) { d.err.CompareAndSwap(nil, &err) }

// stopped reports why the claim loops ended before running every shard:
// the first recorded error, else ctx's. It is nil after a complete run.
func (d *drain) stopped() error {
	if errp := d.err.Load(); errp != nil {
		return *errp
	}
	return d.ctx.Err()
}

// pooled runs the claim loop on workers goroutines, each into a private
// result, and merges the results into res once every shard has run.
func (d *drain) pooled(res *pc.Result, workers int) error {
	locals := make([]*pc.Result, workers)
	var wg sync.WaitGroup
	for w := range locals {
		locals[w] = pc.NewResult()
		wg.Add(1)
		go func(local *pc.Result) {
			defer wg.Done()
			d.claim(local, len(d.todo))
		}(locals[w])
	}
	wg.Wait()
	if err := d.stopped(); err != nil {
		return err
	}
	for _, l := range locals {
		res.Merge(l)
	}
	return nil
}
