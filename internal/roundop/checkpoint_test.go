package roundop_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// memCkpt is an in-memory Checkpointer that keeps what a durable log
// would: each Flush appends the pc record of what the build's result
// gained since the previous one, and Restore replays the records into a
// fresh result, which the resumed build continues into. It also keeps
// each Flush's done list as it was handed, without a copy (Build promises
// not to reuse it), and an onFlush hook lets tests kill the run
// deterministically after N flushes.
type memCkpt struct {
	total   int
	records [][]byte
	mark    pc.Mark
	done    []bool
	flushes int
	batches [][]int
	onFlush func(flushes int)
	failErr error
}

func (m *memCkpt) Restore(totalShards int) ([]bool, *pc.Result, error) {
	m.total = totalShards
	m.mark = pc.Mark{}
	if m.done == nil {
		return nil, nil, nil
	}
	res := pc.NewResult()
	for _, rec := range m.records {
		if _, err := res.ApplyRecord(rec, totalShards); err != nil {
			return nil, nil, err
		}
	}
	m.mark = res.Mark()
	return append([]bool(nil), m.done...), res, nil
}

func (m *memCkpt) Flush(done []int, res *pc.Result) error {
	if m.failErr != nil {
		return m.failErr
	}
	if m.done == nil {
		m.done = make([]bool, m.total)
	}
	m.records = append(m.records, pc.AppendRecord(nil, done, res, m.mark))
	m.mark = res.Mark()
	m.batches = append(m.batches, done)
	for _, i := range done {
		m.done[i] = true
	}
	m.flushes++
	if m.onFlush != nil {
		m.onFlush(m.flushes)
	}
	return nil
}

func TestCkptNilDegrades(t *testing.T) {
	op := asyncmodel.Params{N: 2, F: 2}.Operator()
	got, err := roundop.Build(context.Background(), op, input(2), 1, roundop.Options{FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex.CanonicalHash() != golden(t)["A^1 n=2 m=2 f=2"].Hash {
		t.Fatal("a FlushEvery without a Checkpoint must not change the build")
	}
}

// TestCkptFreshMatchesPlain: a checkpointed build from scratch produces
// the same complex as the plain build and flushes at least once.
func TestCkptFreshMatchesPlain(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	ck := &memCkpt{}
	got, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Checkpoint: ck, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex.CanonicalHash() != want.Complex.CanonicalHash() {
		t.Fatal("checkpointed build diverged from plain build")
	}
	if len(got.Views) != len(want.Views) {
		t.Fatalf("views %d != %d", len(got.Views), len(want.Views))
	}
	if ck.flushes == 0 {
		t.Fatal("no checkpoint flushes recorded")
	}
	for i, d := range ck.done {
		if !d {
			t.Fatalf("shard %d not recorded done after full run", i)
		}
	}
}

// TestCkptResume is the resume contract in miniature: kill a run after
// two flushes, restart it on the same checkpointer, and the resumed run
// (a) skips the persisted shards, (b) enumerates strictly fewer facets
// than the whole product, and (c) lands on the identical CanonicalHash
// and view count.
//
// The kill is deterministic, not a race against the scheduler: onFlush
// cancels inside the second Flush, and the build loop checks ctx.Err()
// before every shard, so no shard starts after that Flush returns.
// Exactly the 2·4 shards of the two flushes persist, of the plan's 32,
// on any CPU count.
func TestCkptResume(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)

	want, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	totalFacets := uint64(len(want.Complex.Facets()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &memCkpt{onFlush: func(flushes int) {
		if flushes == 2 {
			cancel() // the build loop observes this before its next shard
		}
	}}
	if _, err := roundop.Build(ctx, op, in, 1, roundop.Options{Checkpoint: ck, FlushEvery: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if ck.flushes != 2 {
		t.Fatalf("flushes = %d before kill, want 2", ck.flushes)
	}
	persisted := 0
	for _, d := range ck.done {
		if d {
			persisted++
		}
	}
	if persisted != 2*4 {
		t.Fatalf("persisted %d of %d shards; the kill must land after exactly 8", persisted, ck.total)
	}

	tr := obs.NewTracker()
	ctx2 := obs.WithTracker(context.Background(), tr)
	got, err := roundop.Build(ctx2, op, in, 1, roundop.Options{Checkpoint: ck, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex.CanonicalHash() != want.Complex.CanonicalHash() {
		t.Fatal("resumed build diverged from uninterrupted build")
	}
	if len(got.Views) != len(want.Views) {
		t.Fatalf("resumed views %d != %d", len(got.Views), len(want.Views))
	}
	c := tr.Counters()
	if c["shards_restored"] != uint64(persisted) {
		t.Fatalf("shards_restored = %d, want %d", c["shards_restored"], persisted)
	}
	if c["facets"] >= totalFacets {
		t.Fatalf("resume enumerated %d facets, want < %d (restored shards must be skipped)", c["facets"], totalFacets)
	}
	if c["shards_done"] != uint64(ck.total) {
		t.Fatalf("shards_done = %d, want %d", c["shards_done"], ck.total)
	}
}

func TestCkptFlushErrorFails(t *testing.T) {
	boom := errors.New("disk full")
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	ck := &memCkpt{failErr: boom}
	if _, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Checkpoint: ck, FlushEvery: 1}); !errors.Is(err, boom) {
		t.Fatalf("flush error not surfaced: %v", err)
	}
}

// badRestoreCkpt returns a done set sized for the wrong shard count.
type badRestoreCkpt struct{ memCkpt }

func (b *badRestoreCkpt) Restore(totalShards int) ([]bool, *pc.Result, error) {
	return make([]bool, totalShards+7), nil, nil
}

func TestCkptRestoreShapeMismatch(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	if _, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Checkpoint: &badRestoreCkpt{}, FlushEvery: 4}); err == nil {
		t.Fatal("mismatched restore shape must fail the run")
	}
}

// TestCkptBatches pins how a checkpointed build batches its shards and
// what its records hold. The flushed lists are the consecutive runs of
// FlushEvery shards in index order, the last one possibly shorter, and
// each still holds what it held when it was handed over. Replaying the
// records in order gives, after each one, a complex holding RunShard of
// every shard flushed so far, and after the last, the build itself.
func TestCkptBatches(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)
	plan, err := roundop.PlanShards(op, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	const flushEvery = 3
	ck := &memCkpt{}
	got, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{Checkpoint: ck, FlushEvery: flushEvery})
	if err != nil {
		t.Fatal(err)
	}
	if want := (plan.NumShards() + flushEvery - 1) / flushEvery; len(ck.batches) != want {
		t.Fatalf("%d flushes, want %d", len(ck.batches), want)
	}
	replayed := pc.NewResult()
	for i, done := range ck.batches {
		var run []int
		for s := i * flushEvery; s < min((i+1)*flushEvery, plan.NumShards()); s++ {
			run = append(run, s)
		}
		if !slices.Equal(done, run) {
			t.Fatalf("flush %d lists %v, want %v", i, done, run)
		}
		listed, err := replayed.ApplyRecord(ck.records[i], plan.NumShards())
		if err != nil {
			t.Fatalf("record %d does not replay: %v", i, err)
		}
		if !slices.Equal(listed, done) {
			t.Fatalf("record %d lists %v, Flush was handed %v", i, listed, done)
		}
		for s := 0; s <= done[len(done)-1]; s++ {
			shard := pc.NewResult()
			if err := plan.RunShard(shard, s); err != nil {
				t.Fatal(err)
			}
			if !shard.Complex.IsSubcomplexOf(replayed.Complex) {
				t.Fatalf("after record %d the replay lacks shard %d", i, s)
			}
		}
	}
	if replayed.Complex.CanonicalHash() != got.Complex.CanonicalHash() || len(replayed.Views) != len(got.Views) {
		t.Fatal("the replayed records differ from the build")
	}
}

// cancelAt wraps an operator and cancels at its at-th Branches call,
// counting the calls of the continuation operators it hands out too. In
// an r = 2 build, call 1 plans the shards and shard k makes call k+2, so
// the cancel lands inside a shard rather than inside a Flush.
type cancelAt struct {
	op     roundop.Operator
	calls  *int
	at     int
	cancel context.CancelFunc
}

func (c cancelAt) Branches(cur []*views.View) ([]roundop.Branch, error) {
	*c.calls++
	if *c.calls == c.at {
		c.cancel()
	}
	branches, err := c.op.Branches(cur)
	out := make([]roundop.Branch, len(branches))
	for i, b := range branches {
		out[i] = roundop.Branch{Opts: b.Opts, Next: cancelAt{b.Next, c.calls, c.at, c.cancel}}
	}
	return out, err
}

// TestCkptCancelFlushesCompleted: a build cancelled inside a shard
// finishes that shard, flushes every shard it completed since the last
// Flush, and returns context.Canceled. The facets counter, which counts
// each completed shard's facets, equals the flushed shards' facet total,
// and shards_done counts exactly the flushed shards.
func TestCkptCancelFlushesCompleted(t *testing.T) {
	base := asyncmodel.Params{N: 2, F: 2}.Operator()
	in := input(2)
	plan, err := roundop.PlanShards(base, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	op := cancelAt{op: base, calls: &calls, at: 5 + 2, cancel: cancel} // inside shard 5
	tr := obs.NewTracker()
	ck := &memCkpt{}
	_, err = roundop.Build(obs.WithTracker(ctx, tr), op, in, 2, roundop.Options{Checkpoint: ck, FlushEvery: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if want := [][]int{{0, 1, 2, 3}, {4, 5}}; !slices.EqualFunc(ck.batches, want, slices.Equal[[]int]) {
		t.Fatalf("flushed %v of %d shards, want %v", ck.batches, plan.NumShards(), want)
	}
	var facets uint64
	for _, done := range ck.batches {
		for _, s := range done {
			facets += uint64(plan.Facets(s))
		}
	}
	c := tr.Counters()
	if c["shards_done"] != 6 {
		t.Fatalf("shards_done = %d, flushed lists hold 6", c["shards_done"])
	}
	if c["facets"] != facets {
		t.Fatalf("completed shards hold %d facets, flushed ones %d", c["facets"], facets)
	}
}

// shardsCkpt restores the given shards of a plan, built with RunShard
// into one result, together with the facets of extra shards it does not
// report done, as a Checkpointer may (Restore's partial result need only
// lie inside the complex). Flush records nothing.
type shardsCkpt struct {
	plan        *roundop.ShardPlan
	done, extra []int
}

func (c shardsCkpt) Restore(totalShards int) ([]bool, *pc.Result, error) {
	done := make([]bool, totalShards)
	res := pc.NewResult()
	for _, s := range append(slices.Clone(c.done), c.extra...) {
		if err := c.plan.RunShard(res, s); err != nil {
			return nil, nil, err
		}
	}
	for _, s := range c.done {
		done[s] = true
	}
	return done, res, nil
}

func (shardsCkpt) Flush([]int, *pc.Result) error { return nil }

// TestCkptResumeAnyRestoredSet: a one-round async build resumed from any
// restored set equals the fresh build, by Equal and CanonicalHash, with a
// view per vertex. A set that is not a prefix of the plan, as a
// distributed build's checkpoint log completes shards in lease order, a
// prefix, a prefix whose partial result holds a later shard's facets too,
// and no shard restored over a result that holds some all keep the
// probing walk; a Checkpointer that restores nothing gives a fresh build,
// which inserts only new faces.
func TestCkptResumeAnyRestoredSet(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)
	want, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := roundop.PlanShards(op, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range []shardsCkpt{
		{plan: plan, done: []int{1, 3}},
		{plan: plan, done: []int{0, 1}, extra: []int{3}},
		{plan: plan, done: []int{0, 1, 2}},
		{plan: plan, extra: []int{2}},
		{plan: plan},
	} {
		got, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Complex.Equal(want.Complex) || got.Complex.CanonicalHash() != want.Complex.CanonicalHash() {
			t.Fatalf("resumed from %v (and the facets of %v): %d simplexes, the fresh build %d",
				ck.done, ck.extra, got.Complex.Size(), want.Complex.Size())
		}
		if got.Complex.VertexCount() != len(got.Views) {
			t.Fatalf("resumed from %v: %d vertices, %d views", ck.done, got.Complex.VertexCount(), len(got.Views))
		}
	}
}

// TestCkptCancelRecordsReplay: a one-round async build, whose shards
// insert only new faces, cancelled after its third Flush, leaves records
// that ApplyRecord replays in order, face closure checked, into the
// closure of exactly the flushed shards.
func TestCkptCancelRecordsReplay(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)
	plan, err := roundop.PlanShards(op, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &memCkpt{onFlush: func(flushes int) {
		if flushes == 3 {
			cancel()
		}
	}}
	if _, err := roundop.Build(ctx, op, in, 1, roundop.Options{Checkpoint: ck, FlushEvery: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	replayed, shards := pc.NewResult(), pc.NewResult()
	for i, rec := range ck.records {
		if _, err := replayed.ApplyRecord(rec, plan.NumShards()); err != nil {
			t.Fatalf("record %d does not replay: %v", i, err)
		}
		for _, s := range ck.batches[i] {
			if err := plan.RunShard(shards, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(ck.records) != 3 || !replayed.Complex.Equal(shards.Complex) {
		t.Fatalf("%d records replay to %d simplexes; the flushed shards %v hold %d",
			len(ck.records), replayed.Complex.Size(), ck.batches, shards.Complex.Size())
	}
}
