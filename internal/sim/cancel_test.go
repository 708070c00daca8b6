package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pseudosphere/internal/obs"
)

func TestEnumerateCrashSchedulesCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := EnumerateCrashSchedules(ctx, 4, 2, 3, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}

// TestEnumerateCrashSchedulesParallelCtxCancelMidRun cancels the
// enumeration once the schedule counter shows real progress and requires
// a prompt error return with no worker goroutines left behind, at one
// worker and at four.
func TestEnumerateCrashSchedulesParallelCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		tracker := obs.NewTracker()
		ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tracker))
		go func() {
			for tracker.Counters()["schedules"] == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		}()
		start := time.Now()
		out, err := EnumerateCrashSchedules(ctx, 7, 4, 5, workers)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: enumeration completed (%d schedules) before cancellation fired", workers, len(out))
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancelled enumeration took %v to return", workers, elapsed)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("workers=%d: goroutine leak after cancellation: %d before, %d after", workers, before, g)
		}
	}
}
