package asyncmodel

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
)

func TestRoundsParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := roundop.Build(ctx, Params{N: 3, F: 2}.Operator(), testutil.Labeled(3, "v"), 1, roundop.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRoundsParallelCtxCancelMidRun cancels the construction once the
// facet counter shows real progress and requires a prompt error return
// with no worker goroutines left behind.
func TestRoundsParallelCtxCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	tracker := obs.NewTracker()
	ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tracker))
	defer cancel()
	go func() {
		for tracker.Counters()["facets"] == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	start := time.Now()
	res, err := roundop.Build(ctx, Params{N: 4, F: 4}.Operator(), testutil.Labeled(4, "v"), 1, roundop.Options{Workers: 4})
	elapsed := time.Since(start)
	if err == nil {
		// The build outran the canceller; the instance is large enough that
		// this should not happen, and a pass here would prove nothing.
		t.Fatalf("construction completed (size=%d) before cancellation fired", res.Complex.Size())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled construction took %v to return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, g)
	}
}

// The instrumented path (cancellable context + tracker counters) must stay
// within a few percent of the plain serial path at one worker; E16 in
// EXPERIMENTS.md pins the budget at 2%.
func BenchmarkOneWorkerPlain(b *testing.B) {
	in := testutil.Labeled(3, "v")
	op := Params{N: 3, F: 3}.Operator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneWorkerInstrumented(b *testing.B) {
	in := testutil.Labeled(3, "v")
	op := Params{N: 3, F: 3}.Operator()
	tracker := obs.NewTracker()
	ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tracker))
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roundop.Build(ctx, op, in, 1, roundop.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
