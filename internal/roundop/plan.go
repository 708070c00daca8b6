package roundop

import (
	"fmt"
	"math"
	"slices"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Shard chunk sizes. One-round products are split into runs of
// oneRoundChunk consecutive indices; with r > 1 each first-round facet
// expands into a whole (r-1)-round subtree, so deepChunk makes each one
// its own shard, which keeps the leases of a distributed build balanced.
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
// facet ranges. A branch whose facet product does not fit an int64 index
// (pc.ProductSize saturated) is an error, not a branch to skip.
func buildShardJobs(branches []Branch, r int) ([]shardJob, error) {
	chunk := int64(oneRoundChunk)
	if r > 1 {
		chunk = deepChunk
	}
	var jobs []shardJob
	for bi, b := range branches {
		whole, ok := branchJob(b)
		if !ok {
			continue
		}
		if whole.hi == math.MaxInt64 {
			return nil, fmt.Errorf("roundop: branch %d's facet product overflows int64", bi)
		}
		for lo := int64(0); lo < whole.hi; lo += chunk {
			job := whole
			job.lo, job.hi = lo, min(lo+chunk, whole.hi)
			jobs = append(jobs, job)
		}
	}
	return jobs, nil
}

// enum is one goroutine's enumeration scratch, reused across every shard
// and branch it runs so that inserting a facet allocates nothing.
type enum struct {
	// opt holds, for each (position, option) of the final-round branch
	// being inserted, the option's vertex id in the target result plus
	// one (0: not yet resolved); position i's options start at start[i].
	opt   []int32
	start []int
	idx   []int
	ids   []int32
	// newFaces is set (by sphere) when the shards run next are all of one
	// pseudosphere's facets, in order, into a result that starts empty.
	// Each facet then appends only the faces no earlier facet has
	// (topology's AddNewFaces), and markSphere hands the complex the
	// option table once they are all in.
	newFaces bool
}

// sphere sets e.newFaces for running every facet of the pseudosphere with
// option table opts, in order, into the empty result res, and sizes res's
// arena for the whole pseudosphere. A pseudosphere whose counts do not
// fit the complex's int32 entry indices and offsets keeps the probing
// walk.
func (e *enum) sphere(res *pc.Result, opts [][]pc.Option) {
	entries, ids := int64(1), int64(0) // the empty choice included
	for _, o := range opts {
		v := int64(len(o))
		ids = min(pc.SatMul(ids, v+1), math.MaxInt32) + min(pc.SatMul(entries, v), math.MaxInt32)
		entries = pc.SatMul(entries, v+1)
		if entries > math.MaxInt32 || ids > math.MaxInt32 {
			return
		}
	}
	res.Complex.Reserve(int(entries-1), int(ids))
	e.newFaces = true
}

// markSphere hands res's complex the option table of the pseudosphere
// sphere set up, as vertex ids, once every facet is in, so that its face
// table is computed rather than probed (topology's MarkPseudosphere).
func (e *enum) markSphere(res *pc.Result, opts [][]pc.Option) {
	if !e.newFaces {
		return
	}
	ids := make([][]int32, len(opts))
	for i, o := range opts {
		ids[i] = make([]int32, len(o))
		for d, op := range o {
			ids[i][d], _ = res.Complex.Intern(op.Vert)
		}
	}
	res.Complex.MarkPseudosphere(ids)
}

// run enumerates one shard's facet range into res (for r > 1, each
// facet's continuation rounds) and returns the number of final-round
// facets it inserted.
func (e *enum) run(res *pc.Result, job shardJob, r int) (int64, error) {
	if r == 1 {
		e.final(res, job)
		return job.hi - job.lo, nil
	}
	n := len(job.opts)
	idx := make([]int, n)
	facet := make([]*views.View, n)
	pc.DecodeIndex(idx, job.opts, job.lo)
	var inserted int64
	for li := job.lo; li < job.hi; li++ {
		for i, o := range job.opts {
			facet[i] = o[idx[i]].View
		}
		m, err := e.rounds(res, job.next, facet, r-1)
		inserted += m
		if err != nil {
			return inserted, err
		}
		pc.Advance(idx, job.opts)
	}
	return inserted, nil
}

// rounds adds the r-round complex (r >= 1) reachable from cur to res and
// returns the number of final-round facets it inserted.
func (e *enum) rounds(res *pc.Result, op Operator, cur []*views.View, r int) (int64, error) {
	branches, err := op.Branches(cur)
	if err != nil {
		return 0, err
	}
	var inserted int64
	for _, b := range branches {
		job, ok := branchJob(b)
		if !ok {
			continue
		}
		n, err := e.run(res, job, r)
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// final inserts the facets [job.lo, job.hi) of a final-round branch into
// res as vertex-id sequences. Each option is resolved to its vertex id at
// most once per call, the first time a facet uses it: only then is its
// vertex interned, and its view recorded if the vertex is new. So every
// interned vertex is at once a 0-simplex of the facet being inserted, and
// ids come out in the order interning facet by facet would assign them.
// The odometer re-resolves only the positions a step changes, in
// ascending order, so no label is hashed per facet.
func (e *enum) final(res *pc.Result, job shardJob) {
	n := len(job.opts)
	e.start = e.start[:0]
	total := 0
	for _, o := range job.opts {
		e.start = append(e.start, total)
		total += len(o)
	}
	e.opt = slices.Grow(e.opt[:0], total)[:total]
	clear(e.opt)
	e.idx = slices.Grow(e.idx[:0], n)[:n]
	e.ids = slices.Grow(e.ids[:0], n)[:n]
	pc.DecodeIndex(e.idx, job.opts, job.lo)
	var need uint32 // bit i: position i is not at option 0
	for i := range n {
		e.ids[i] = e.resolve(res, job.opts, i)
		if e.idx[i] != 0 {
			need |= 1 << i
		}
	}
	for li := job.lo; ; {
		if e.newFaces {
			res.Complex.AddNewFaces(e.ids, need)
		} else {
			res.Complex.AddIDs(e.ids)
		}
		if li++; li == job.hi {
			return
		}
		i := n - 1
		for ; i > 0 && e.idx[i]+1 == len(job.opts[i]); i-- {
			e.idx[i] = 0
		}
		e.idx[i]++
		need = need&(1<<i-1) | 1<<i
		for ; i < n; i++ {
			e.ids[i] = e.resolve(res, job.opts, i)
		}
	}
}

// resolve returns the vertex id in res of position i's current option,
// interning it on first use.
func (e *enum) resolve(res *pc.Result, opts [][]pc.Option, i int) int32 {
	slot := &e.opt[e.start[i]+e.idx[i]]
	if *slot == 0 {
		o := opts[i][e.idx[i]]
		id, added := res.Complex.Intern(o.Vert)
		if added {
			res.Views[o.Vert] = o.View
		}
		*slot = id + 1
	}
	return *slot - 1
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
	// sphere is the option table of the plan's one branch with facets
	// when r is 1, so that the complex is that one pseudosphere (Lemma 11
	// for async), and nil otherwise.
	sphere [][]pc.Option
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
	jobs, err := buildShardJobs(branches, r)
	if err != nil {
		return nil, err
	}
	p := &ShardPlan{jobs: jobs, r: r}
	// Each branch with facets starts a run of jobs at index 0.
	if r == 1 && len(jobs) > 0 && !slices.ContainsFunc(jobs[1:], func(j shardJob) bool { return j.lo == 0 }) {
		p.sphere = jobs[0].opts
	}
	return p, nil
}

// NumShards returns the number of shards in the plan. Checkpoint records
// and lease protocols address shards as [0, NumShards).
func (p *ShardPlan) NumShards() int { return len(p.jobs) }

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
	_, err := new(enum).run(into, p.jobs[i], p.r)
	return err
}

// Facets returns the number of final-round facet insertions shard i
// performs, which is what a Build's "facets" counter adds when it runs
// the shard: its first-round facet count times the continuation cost of
// one representative facet (estimateRounds), exact for the in-tree
// operators. It returns 0 for an index out of range, or when the
// continuation's Branches fails, as RunShard would then too.
func (p *ShardPlan) Facets(i int) int64 {
	if i < 0 || i >= len(p.jobs) {
		return 0
	}
	job := p.jobs[i]
	per := int64(1)
	if p.r > 1 {
		var err error
		if per, err = continuation(job.opts, job.next, p.r); err != nil {
			return 0
		}
	}
	return pc.SatMul(job.hi-job.lo, per)
}
