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
)

// memCkpt is an in-memory Checkpointer that keeps what a durable log
// would: each Flush appends the pc record of what the build's result
// gained since the previous one, and Restore replays the records into a
// fresh result, which the resumed build continues into. It also keeps
// each Flush's done list, and an onFlush hook lets tests kill the run
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
	m.batches = append(m.batches, append([]int(nil), done...))
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
	got, err := roundop.Build(context.Background(), op, input(2), 1, roundop.Options{Workers: 2, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex.CanonicalHash() != golden(t)["A^1 n=2 m=2 f=2"].Hash {
		t.Fatal("a FlushEvery without a Checkpoint must not change the build")
	}
}

// TestCkptFreshMatchesPlain: a checkpointed build from scratch produces
// the same complex as the plain parallel build and flushes at least once.
func TestCkptFreshMatchesPlain(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	ck := &memCkpt{}
	got, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Workers: 4, Checkpoint: ck, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Workers: 4})
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
// The kill is deterministic, not a race against the workers: onFlush is
// a barrier — the collector goroutine is inside Flush while cancel()
// runs, and the worker claim-loop checks ctx.Err() directly, so by the
// time cancel() returns no worker can claim another shard. Work already
// in flight is bounded by channel backpressure (per worker: one batch
// buffered in the out channel plus one in hand, each of at most 4
// shards), so with 2 workers at most 8 + 8 + 8 = 24 of the 32 shards
// can ever reach the checkpoint — always strictly fewer than the full job
// list, on any scheduler and any CPU count. (Before this barrier the
// cancel was delivered via an async context.AfterFunc flag, and on fast
// single-CPU machines all shards could persist before any worker
// observed it.)
func TestCkptResume(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)

	want, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	totalFacets := uint64(len(want.Complex.Facets()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &memCkpt{onFlush: func(flushes int) {
		if flushes == 2 {
			cancel() // workers observe this before their next shard claim
		}
	}}
	if _, err := roundop.Build(ctx, op, in, 1, roundop.Options{Workers: 2, Checkpoint: ck, FlushEvery: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if ck.flushes < 2 {
		t.Fatalf("flushes = %d before kill, want >= 2", ck.flushes)
	}
	persisted := 0
	for _, d := range ck.done {
		if d {
			persisted++
		}
	}
	if persisted == 0 || persisted == ck.total {
		t.Fatalf("persisted %d of %d shards; kill must land mid-build", persisted, ck.total)
	}

	tr := obs.NewTracker()
	ctx2 := obs.WithTracker(context.Background(), tr)
	got, err := roundop.Build(ctx2, op, in, 1, roundop.Options{Workers: 4, Checkpoint: ck, FlushEvery: 4})
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
	if _, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Workers: 4, Checkpoint: ck, FlushEvery: 1}); !errors.Is(err, boom) {
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
	if _, err := roundop.Build(context.Background(), op, input(3), 1, roundop.Options{Workers: 4, Checkpoint: &badRestoreCkpt{}, FlushEvery: 4}); err == nil {
		t.Fatal("mismatched restore shape must fail the run")
	}
}

// TestCkptBatches pins how a checkpointed build batches its shards and
// what its records hold. At one worker the flushed lists are consecutive
// runs of FlushEvery shards; with more workers each loop batches its own
// shards, so every shard is flushed in exactly one list of at most
// FlushEvery shards. Either way, replaying the records in order gives,
// after each one, a complex holding RunShard of every shard flushed so
// far, and after the last, the build itself.
func TestCkptBatches(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)
	plan, err := roundop.PlanShards(op, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	const flushEvery = 3
	for _, workers := range []int{1, 2, 4, 8} {
		ck := &memCkpt{}
		got, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{Workers: workers, Checkpoint: ck, FlushEvery: flushEvery})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, plan.NumShards())
		replayed := pc.NewResult()
		for i, done := range ck.batches {
			if len(done) == 0 || len(done) > flushEvery {
				t.Fatalf("workers %d: flush %d lists %v, want 1..%d shards", workers, i, done, flushEvery)
			}
			listed, err := replayed.ApplyRecord(ck.records[i], plan.NumShards())
			if err != nil {
				t.Fatalf("workers %d: record %d does not replay: %v", workers, i, err)
			}
			if !slices.Equal(listed, done) {
				t.Fatalf("workers %d: record %d lists %v, Flush was handed %v", workers, i, listed, done)
			}
			for j, s := range done {
				if workers == 1 && s != i*flushEvery+j {
					t.Fatalf("workers 1: flush %d lists %v, want the run from %d", i, done, i*flushEvery)
				}
				seen[s]++
			}
			for s, n := range seen {
				if n == 0 {
					continue
				}
				shard := pc.NewResult()
				if err := plan.RunShard(shard, s); err != nil {
					t.Fatal(err)
				}
				if !shard.Complex.IsSubcomplexOf(replayed.Complex) {
					t.Fatalf("workers %d: after record %d the replay lacks shard %d", workers, i, s)
				}
			}
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("workers %d: shard %d flushed %d times, want once", workers, s, n)
			}
		}
		if replayed.Complex.CanonicalHash() != got.Complex.CanonicalHash() || len(replayed.Views) != len(got.Views) {
			t.Fatalf("workers %d: the replayed records differ from the build", workers)
		}
		if want := (plan.NumShards() + flushEvery - 1) / flushEvery; workers == 1 && len(ck.batches) != want {
			t.Fatalf("workers 1: %d flushes, want %d", len(ck.batches), want)
		}
	}
}

// TestCkptCancelFlushesCompleted: a build cancelled mid-run flushes every
// shard it completed — the facets counter, which counts each completed
// shard's facets, equals the flushed shards' facet total — and every
// shard counted in shards_done is in a flushed list.
func TestCkptCancelFlushesCompleted(t *testing.T) {
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	in := input(3)
	plan, err := roundop.PlanShards(op, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		tr := obs.NewTracker()
		ck := &memCkpt{onFlush: func(flushes int) {
			if flushes == 2 {
				cancel()
			}
		}}
		_, err := roundop.Build(obs.WithTracker(ctx, tr), op, in, 1, roundop.Options{Workers: workers, Checkpoint: ck, FlushEvery: 2})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: cancelled run returned %v", workers, err)
		}
		var shards, facets uint64
		for _, done := range ck.batches {
			for _, s := range done {
				shards++
				facets += uint64(plan.Facets(s))
			}
		}
		c := tr.Counters()
		if shards == 0 || shards == uint64(plan.NumShards()) {
			t.Fatalf("workers %d: %d of %d shards flushed; the cancel must land mid-build", workers, shards, plan.NumShards())
		}
		if c["shards_done"] != shards {
			t.Fatalf("workers %d: shards_done = %d, flushed lists hold %d", workers, c["shards_done"], shards)
		}
		if c["facets"] != facets {
			t.Fatalf("workers %d: completed shards hold %d facets, flushed ones %d", workers, c["facets"], facets)
		}
	}
}
