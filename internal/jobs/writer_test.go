package jobs

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
)

// TestWriterConcurrentAppends: rank records put from several goroutines
// while the build flushes its chain all reach the disk, each PutRank
// durable when it returns, and the log reopens to every rank and the
// whole chain.
func TestWriterConcurrentAppends(t *testing.T) {
	plan, err := roundop.PlanShards(asyncmodel.Params{N: 3, F: 3}.Operator(), testutil.Labeled(3, "v"), 1)
	if err != nil {
		t.Fatal(err)
	}
	total := plan.NumShards()
	path := filepath.Join(t.TempDir(), "concurrent.ckpt")
	log, err := OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Restore(total); err != nil {
		t.Fatal(err)
	}
	const goroutines, ranks = 4, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for d := 0; d < ranks; d++ {
				if err := log.PutRank(fmt.Sprint("h", g), d, 100*g+d); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	res := pc.NewResult()
	for s := 0; s < total; s++ {
		if err := plan.RunShard(res, s); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush([]int{s}, res); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for g := 0; g < goroutines; g++ {
		if got := again.KnownRanks(fmt.Sprint("h", g)); len(got) != ranks || got[ranks-1] != 100*g+ranks-1 {
			t.Fatalf("goroutine %d's ranks reopen as %v", g, got)
		}
	}
	done, partial, err := again.Restore(total)
	if err != nil {
		t.Fatal(err)
	}
	for s, d := range done {
		if !d {
			t.Fatalf("shard %d not restored", s)
		}
	}
	if partial.Complex.CanonicalHash() != res.Complex.CanonicalHash() {
		t.Fatal("the chain restores to another complex")
	}
}

// TestWriterErrorIsSticky: once the writer fails to write a record, the
// next PutRank, Flush and Close all return the failure, so a failing disk
// fails the build instead of leaving it unresumable in silence.
func TestWriterErrorIsSticky(t *testing.T) {
	log, err := OpenCheckpointLog(filepath.Join(t.TempDir(), "failing.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Restore(1); err != nil {
		t.Fatal(err)
	}
	log.f.Close() // every later write fails
	res := pc.NewResult()
	if err := log.Flush([]int{0}, res); err != nil {
		t.Fatalf("Flush only queues its record, yet returned %v", err)
	}
	if err := log.PutRank("h", 1, 1); err == nil {
		t.Fatal("PutRank returned before its record failed to be written")
	}
	if err := log.Flush([]int{0}, res); err == nil {
		t.Fatal("Flush after a failed write succeeded")
	}
	if err := log.Close(); err == nil {
		t.Fatal("Close after a failed write succeeded")
	}
}
