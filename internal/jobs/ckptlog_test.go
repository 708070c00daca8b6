package jobs_test

import (
	"context"
	"encoding/json"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// goldenIISHash is the CanonicalHash of IIS n=2 r=2 over inputs a, b, c,
// a 13-shard build; testdata/iis-n2-r2-sorted.ckpt holds its checkpoint
// log at two shards per flush plus one rank record (dimension 1, rank 5).
const (
	goldenIISHash   = "20c6cc88cbf55b69d1cc8651267f440b17972aeb67d12e085ff9fda4262daa8c"
	goldenIISShards = 13
)

// buildQuery compiles a preset query and returns it with the service's
// input labeling (process i holds 'a'+i).
func buildQuery(tb testing.TB, query string) (*modelspec.Instance, topology.Simplex) {
	tb.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := modelspec.FromQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	input := make(topology.Simplex, inst.M+1)
	for i := range input {
		input[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return inst, input
}

// buildResult builds a preset query's complex in one process.
func buildResult(tb testing.TB, query string) *pc.Result {
	tb.Helper()
	inst, input := buildQuery(tb, query)
	res, err := inst.Build(context.Background(), input, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// openCopy opens a checkpoint log over a private copy of raw.
func openCopy(t *testing.T, raw []byte) *jobs.CheckpointLog {
	t.Helper()
	path := filepath.Join(t.TempDir(), "copy.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// restoredHash restores log for total shards, requires every shard done,
// and returns the partial complex's hash.
func restoredHash(t *testing.T, log *jobs.CheckpointLog, total int) string {
	t.Helper()
	done, partial, err := log.Restore(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != total {
		t.Fatalf("restore marked %d of %d shards", len(done), total)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("shard %d not restored", i)
		}
	}
	return partial.Complex.CanonicalHash()
}

// TestRestoreSortedEncoderLog: a checkpoint log written by the encoder
// pc's delta codec replaced — vertex table in (process, label) order,
// rows in (dimension, key) order — still restores, to the pinned complex,
// so a job interrupted before an upgrade resumes after it. A log of the
// same build written by the current encoder restores identically.
func TestRestoreSortedEncoderLog(t *testing.T) {
	raw, err := os.ReadFile("testdata/iis-n2-r2-sorted.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	log := openCopy(t, raw)
	if got := restoredHash(t, log, goldenIISShards); got != goldenIISHash {
		t.Fatalf("golden log restores to %s, want %s", got, goldenIISHash)
	}
	if ranks := log.KnownRanks(goldenIISHash); ranks[1] != 5 || len(ranks) != 1 {
		t.Fatalf("golden rank records = %v, want map[1:5]", ranks)
	}

	inst, input := buildQuery(t, "model=iis&n=2&r=2")
	path := filepath.Join(t.TempDir(), "fresh.ckpt")
	fresh, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.BuildCkpt(context.Background(), input, 1, 2, fresh)
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != goldenIISHash {
		t.Fatalf("IIS n=2 r=2 builds to %s, golden pin %s", got, goldenIISHash)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := restoredHash(t, openCopy(t, written), goldenIISShards); got != goldenIISHash {
		t.Fatalf("current-encoder log restores to %s, want %s", got, goldenIISHash)
	}
}

// TestRestoreSkipsUnclosedDelta: a shard record whose delta is not
// face-closed (an edge without its vertices) fails validation like any
// corrupt record. Restore skips it, so the build re-runs its shards and
// lands on the plain build's complex instead of the broken one.
func TestRestoreSkipsUnclosedDelta(t *testing.T) {
	inst, input := buildQuery(t, "model=iis&n=2&r=1")
	want := buildResult(t, "model=iis&n=2&r=1").Complex.CanonicalHash()
	plan, err := roundop.PlanShards(inst.Operator(), input, inst.R)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"t": "shards", "total": plan.NumShards(), "done": []int{0, 1},
		"verts": []pc.DeltaVert{{P: 0, L: views.Initial(0, "a").Encode()}, {P: 1, L: views.Initial(1, "b").Encode()}},
		"simps": [][]int32{{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := openCopy(t, store.EncodeFrame(payload))
	tr := obs.NewTracker()
	res, err := inst.BuildCkpt(obs.WithTracker(context.Background(), tr), input, 1, 2, log)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Counters()["shards_restored"]; got != 0 {
		t.Fatalf("shards_restored = %d, want 0: the record must be skipped", got)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("build over the bad record hashes %s, want %s", got, want)
	}
}

// BenchmarkCkptFlush times one durable checkpoint flush of a fresh A^1
// n=3 f=3 result (4,096 facets, 6,560 simplexes): open a log, Restore,
// Flush the whole result as one record, and Close, which returns once the
// writer has synced it. A key sort, a JSON encoding or a second copy of
// the complex on this path costs several times the rest.
func BenchmarkCkptFlush(b *testing.B) {
	res := buildResult(b, "model=async&n=3&f=3&r=1")
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os.Remove(path)
		log, err := jobs.OpenCheckpointLog(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := log.Restore(1); err != nil {
			b.Fatal(err)
		}
		if err := log.Flush([]int{0}, res); err != nil {
			b.Fatal(err)
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
