package roundop

import (
	"fmt"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Shard chunk sizes. One-round products are split into runs of
// oneRoundChunk consecutive indices; with r > 1 each first-round facet
// expands into a whole (r-1)-round subtree, so deepChunk dispatches them
// one at a time to keep the workers balanced.
const (
	oneRoundChunk = 128
	deepChunk     = 1
)

// shardJob is one slice of one branch: the branch's option table, the
// operator its continuation rounds use, and a linear index range into the
// option product.
type shardJob struct {
	opts   [][]pc.Option
	next   Operator
	lo, hi int64
}

// branchJob returns the job spanning a branch's whole facet product, or
// false when the branch has no facets.
func branchJob(b Branch) (shardJob, bool) {
	size := pc.ProductSize(b.Opts)
	if len(b.Opts) == 0 || size == 0 {
		return shardJob{}, false
	}
	return shardJob{opts: b.Opts, next: b.Next, hi: size}, true
}

// buildShardJobs shards every branch's facet product into index-range
// jobs. Branches arrive in the operator's deterministic order and shards
// are cut at fixed strides, so the job list — and therefore any shard
// index — is stable across runs of the same (operator, input, rounds)
// triple. The checkpoint layer depends on that stability: a resumed run
// rebuilds this list and trusts recorded shard indices to mean the same
// facet ranges.
func buildShardJobs(branches []Branch, r int) (jobs []shardJob, grand int64) {
	chunk := int64(oneRoundChunk)
	if r > 1 {
		chunk = deepChunk
	}
	for _, b := range branches {
		whole, ok := branchJob(b)
		if !ok {
			continue
		}
		grand += whole.hi
		for lo := int64(0); lo < whole.hi; lo += chunk {
			job := whole
			job.lo, job.hi = lo, min(lo+chunk, whole.hi)
			jobs = append(jobs, job)
		}
	}
	return jobs, grand
}

// runShard enumerates one shard's facet range into res (for r > 1, each
// facet's continuation rounds) and returns the number of final-round
// facets it inserted.
func runShard(res *pc.Result, job shardJob, r int) (int64, error) {
	n := len(job.opts)
	idx := make([]int, n)
	verts := make([]topology.Vertex, n)
	facet := make([]*views.View, n)
	pc.DecodeIndex(idx, job.opts, job.lo)
	var inserted int64
	for li := job.lo; li < job.hi; li++ {
		pc.FillFacet(facet, verts, job.opts, idx)
		if r == 1 {
			res.AddFacetVertices(verts, facet)
			inserted++
		} else {
			m, err := appendRounds(res, job.next, facet, r-1)
			inserted += m
			if err != nil {
				return inserted, err
			}
		}
		pc.Advance(idx, job.opts)
	}
	return inserted, nil
}

// ShardPlan is the deterministic shard decomposition every Build runs
// on: the (operator, input, rounds) triple's branch list cut into
// index-range jobs at fixed strides. The plan — and therefore every shard
// index — is identical across processes that compute it from the same
// triple (see buildShardJobs), so a remote worker holding nothing but the
// triple can enumerate exactly the facets shard i means on the
// coordinator. That stability is the whole distributed-construction
// protocol: shard indices are the only thing the wire has to carry.
//
// A ShardPlan is immutable after PlanShards; RunShard may be called from
// any number of goroutines as long as each uses its own target result.
type ShardPlan struct {
	jobs []shardJob
	r    int
	size int64
}

// PlanShards builds the shard plan for an r-round construction over
// input. r must be at least 1 — a 0-round complex is the input's closure
// and has no facet product to shard.
func PlanShards(op Operator, input topology.Simplex, r int) (*ShardPlan, error) {
	if r < 1 {
		return nil, fmt.Errorf("roundop: PlanShards needs r >= 1, got %d", r)
	}
	branches, err := op.Branches(pc.InputViews(input))
	if err != nil {
		return nil, err
	}
	jobs, grand := buildShardJobs(branches, r)
	return &ShardPlan{jobs: jobs, r: r, size: grand}, nil
}

// NumShards returns the number of shards in the plan. Checkpoint records
// and lease protocols address shards as [0, NumShards).
func (p *ShardPlan) NumShards() int { return len(p.jobs) }

// Size returns shard i's first-round option count: for r == 1 the exact
// facet count, for deeper builds the number of first-round subtrees the
// shard expands.
func (p *ShardPlan) Size(i int) int64 {
	if i < 0 || i >= len(p.jobs) {
		return 0
	}
	return p.jobs[i].hi - p.jobs[i].lo
}

// TotalSize returns the sum of Size over every shard.
func (p *ShardPlan) TotalSize() int64 { return p.size }

// RunShard enumerates shard i's facets (and, for r > 1, their
// continuation rounds) into the given result. Distinct goroutines may run
// distinct shards concurrently into distinct results; merging the per-
// shard results in any order yields the same complex as the single-
// process build, because shards partition the facet product and the
// complex is a set.
func (p *ShardPlan) RunShard(into *pc.Result, i int) error {
	if i < 0 || i >= len(p.jobs) {
		return fmt.Errorf("roundop: shard index %d out of range [0, %d)", i, len(p.jobs))
	}
	_, err := runShard(into, p.jobs[i], p.r)
	return err
}
