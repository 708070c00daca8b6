package jobs_test

// The crash-resume harness: stop a service with a checkpointed job
// mid-build, restart over the same directories, and require the job to
// finish from its checkpoints with exactly the result an uninterrupted
// run produces.

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pseudosphere/internal/jobs"
	"pseudosphere/internal/serve"
)

// ckptBytes reports the job directory's total checkpoint-log size.
func ckptBytes(t *testing.T, dir string) int64 {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "jobs", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, path := range logs {
		if fi, err := os.Stat(path); err == nil {
			total += fi.Size()
		}
	}
	return total
}

func TestJobResumesAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 161051-facet complex twice")
	}
	// The subject: async model, n=4, f=2, one round — 11^5 = 161051
	// facets, ~a thousand shards, seconds of build. Checkpoint every 2
	// shards so the first stop has plenty of durable progress.
	const spec = `{"endpoint":"rounds","params":{"model":"async","n":"4","f":"2","r":"1"}}`
	tune := func(c *serve.Config) {
		c.MaxJobs = 1
		c.JobCheckpointEvery = 2
	}
	dir := t.TempDir()

	js1 := openJobService(t, dir, tune)
	code, st := js1.submit(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Wait for durable progress: a non-empty checkpoint log means at least
	// one shard batch survived.
	deadline := time.Now().Add(60 * time.Second)
	for ckptBytes(t, dir) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint flushed before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the service the way a drain does. The manager cancels the run,
	// the collector flushes its pending shards, and the record reverts to
	// queued on disk.
	js1.close()
	if ckptBytes(t, dir) == 0 {
		t.Fatal("checkpoint log vanished across shutdown")
	}

	// Restart over the same directories: the job must requeue itself and
	// run again — and the second attempt must observably restore shards
	// instead of starting from zero.
	js2 := openJobService(t, dir, tune)
	sawRestored := false
	fin := js2.pollState(t, st.ID, 120*time.Second, func(s jobs.Status) bool {
		if s.State == jobs.StateRunning && s.Progress != nil && s.Progress.Counters["shards_restored"] > 0 {
			sawRestored = true
		}
		return s.State.Terminal()
	})
	if fin.State != jobs.StateDone {
		t.Fatalf("resumed job state = %q (error %q), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one per process)", fin.Attempts)
	}
	if !sawRestored {
		t.Fatal("second attempt never reported shards_restored > 0: it recomputed from scratch")
	}

	// The resumed result must match an uninterrupted construction exactly.
	// The fixture values are from roundop.Build on the
	// identical input (see roundop's TestCkptFreshMatchesPlain for the
	// live equivalence proof; the canonical hash is content-addressed, so
	// any divergence — a lost shard, a double-merged delta, a mangled
	// label — changes it).
	const (
		wantHash   = "a632d9743fd7b42e57c0ab972a10022671401c376e8e95af98afc07fa8161716"
		wantFacets = 161051 // 11^5: each process sees one of 11 admissible views
		wantViews  = 55
	)
	rcode, rbody := js2.result(t, st.ID)
	if rcode != http.StatusOK {
		t.Fatalf("result: status %d (%v)", rcode, rbody)
	}
	got := rbody["complex"].(map[string]any)
	if hash := got["canonical_hash"].(string); hash != wantHash {
		t.Fatalf("resumed canonical hash %s != uninterrupted %s", hash, wantHash)
	}
	if facets := int(got["facets"].(float64)); facets != wantFacets {
		t.Fatalf("resumed facets %d != uninterrupted %d", facets, wantFacets)
	}
	if views := int(rbody["views"].(float64)); views != wantViews {
		t.Fatalf("resumed views %d != uninterrupted %d", views, wantViews)
	}

	// Done spends the resume data.
	if ckptBytes(t, dir) != 0 {
		t.Fatal("checkpoint log survived completion")
	}
}
