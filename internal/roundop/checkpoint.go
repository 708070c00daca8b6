package roundop

import (
	"context"
	"fmt"
	"sync"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
)

// Checkpointer persists construction progress at shard boundaries so a
// killed run can resume instead of recomputing. Shard indices refer to
// the deterministic job list buildShardJobs derives from the operator's
// branches, which is identical across runs of the same (operator, input,
// rounds) triple — a checkpoint written by one process is meaningful to
// the next.
//
// A checkpointed build has one result from start to finish: the partial
// result Restore returns, else a fresh one. Every Flush is handed that
// result, so a Checkpointer records only what it gained since the
// previous Flush or the Restore — an append log of the build's own
// result, whose records replay in order into the result they were cut
// from.
//
// Restore and Flush are called from a single goroutine; implementations
// need no internal locking against each other.
type Checkpointer interface {
	// Restore reports which of totalShards shards a prior run completed
	// (done[i] == true) together with a partial result holding every
	// facet of those shards, and nothing outside the complex being built,
	// which becomes the build's result. A fresh run returns (nil, nil,
	// nil). An implementation that finds some of its records corrupt or
	// mismatched (e.g. written for a different shard count) should report
	// what the records before them hold, possibly a fresh start, rather
	// than error.
	Restore(totalShards int) (done []bool, partial *pc.Result, err error)

	// Flush records that the shards in done completed. res is the build's
	// result: it holds every facet of the shards in done, and everything
	// it held at the previous Flush, or at Restore, was recorded then. A
	// Flush error fails the build. A Checkpointer may make a record
	// durable after Flush returns, provided a failure to do so is
	// returned by a later Flush.
	Flush(done []int, res *pc.Result) error
}

// restore returns the build's result and the indices of the shards it
// still has to run: without a checkpoint, a fresh result and every shard;
// with one, ck.Restore's partial result itself (or a fresh one) and the
// shards it does not report done. Using the partial result without a copy
// keeps what the checkpointer recorded and the build's result the same.
func restore(ctx context.Context, plan *ShardPlan, ck Checkpointer) (*pc.Result, []int, error) {
	total := plan.NumShards()
	var done []bool
	var res *pc.Result
	if ck != nil {
		var err error
		done, res, err = ck.Restore(total)
		if err != nil {
			return nil, nil, fmt.Errorf("roundop: restore checkpoint: %w", err)
		}
		if done != nil && len(done) != total {
			return nil, nil, fmt.Errorf("roundop: checkpoint restored %d shards, job list has %d", len(done), total)
		}
	}
	if res == nil {
		res = pc.NewResult()
	}
	todo := make([]int, 0, total)
	for i := 0; i < total; i++ {
		if done == nil || !done[i] {
			todo = append(todo, i)
		}
	}
	if ck != nil {
		restored := uint64(total - len(todo))
		tr := obs.FromContext(ctx)
		tr.SetGoal("shards_done", uint64(total))
		tr.Counter("shards_done").Add(restored)
		tr.Counter("shards_restored").Add(restored)
	}
	return res, todo, nil
}

// checkpointed runs the claim loop on workers goroutines. Each runs its
// shards into a private batch and hands the batch to a collector (this
// goroutine) after flushEvery shards, and its partial batch when it
// stops. The collector merges each batch into res and then hands res to
// ck.Flush with the batch's shards. On cancellation every loop's partial
// batch is still merged and flushed; a loop whose shard fails drops its
// batch, which holds part of that shard, and the other loops' batches are
// flushed.
func (d *drain) checkpointed(res *pc.Result, workers, flushEvery int, ck Checkpointer) error {
	tr := obs.FromContext(d.ctx)
	shardCtr := tr.Counter("shards_done")
	flushCtr := tr.Counter("ckpt_flushes")

	type batch struct {
		done  []int
		delta *pc.Result
	}
	// The out channel's backpressure (at most one buffered and one
	// in-hand batch per worker), together with claim's synchronous ctx
	// check, bounds how many shards can complete after a kill, which is
	// what makes the kill-mid-build checkpoint tests deterministic
	// instead of a race against the goroutine scheduler.
	out := make(chan batch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				local := pc.NewResult()
				done := d.claim(local, flushEvery)
				if len(done) > 0 {
					out <- batch{done: done, delta: local}
				}
				if len(done) < flushEvery {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	var flushErr error
	for b := range out {
		if flushErr != nil {
			continue // drain so workers sending on out never block
		}
		res.Merge(b.delta)
		if err := ck.Flush(b.done, res); err != nil {
			flushErr = fmt.Errorf("roundop: flush checkpoint: %w", err)
			d.fail(flushErr)
			continue
		}
		flushCtr.Add(1)
		shardCtr.Add(uint64(len(b.done)))
	}
	if flushErr != nil {
		return flushErr
	}
	return d.stopped()
}
