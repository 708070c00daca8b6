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
// Restore and Flush are called from a single goroutine; implementations
// need no internal locking against each other.
type Checkpointer interface {
	// Restore reports which of totalShards shards a prior run completed
	// (done[i] == true) together with their merged partial result. A
	// fresh run returns (nil, nil, nil). An implementation that finds
	// its records corrupt or mismatched (e.g. written for a different
	// shard count) should discard them and report a fresh start rather
	// than error.
	Restore(totalShards int) (done []bool, partial *pc.Result, err error)

	// Flush durably records that the shards in done completed, with
	// delta holding exactly their merged facets (a face-closed
	// complex). Flush is called before the delta is merged into the
	// final result, so a flush error fails the run without having
	// served unpersisted state as progress.
	Flush(done []int, delta *pc.Result) error
}

// restore returns the indices of the shards a build still has to run:
// every shard without a checkpoint, else those ck.Restore does not report
// done, whose partial result it merges into res.
func restore(ctx context.Context, plan *ShardPlan, res *pc.Result, ck Checkpointer) ([]int, error) {
	total := plan.NumShards()
	var done []bool
	if ck != nil {
		var partial *pc.Result
		var err error
		done, partial, err = ck.Restore(total)
		if err != nil {
			return nil, fmt.Errorf("roundop: restore checkpoint: %w", err)
		}
		if done != nil && len(done) != total {
			return nil, fmt.Errorf("roundop: checkpoint restored %d shards, job list has %d", len(done), total)
		}
		if partial != nil {
			res.Merge(partial)
		}
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
	return todo, nil
}

// checkpointed runs the claim loop on workers goroutines. Each runs its
// shards into a private batch and hands the batch to a collector (this
// goroutine) after flushEvery shards, and its partial batch when it
// stops. The collector flushes each batch through ck and then merges it
// into res, so the checkpoint never claims shards the result lacks and
// the result never includes shards the checkpoint could lose. On
// cancellation every loop's partial batch is still flushed; a loop whose
// shard fails drops its batch, which holds part of that shard, and the
// other loops' batches are flushed.
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
		if err := ck.Flush(b.done, b.delta); err != nil {
			flushErr = fmt.Errorf("roundop: flush checkpoint: %w", err)
			d.fail(flushErr)
			continue
		}
		flushCtr.Add(1)
		shardCtr.Add(uint64(len(b.done)))
		res.Merge(b.delta)
	}
	if flushErr != nil {
		return flushErr
	}
	return d.stopped()
}
