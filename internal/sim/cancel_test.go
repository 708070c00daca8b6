package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"pseudosphere/internal/obs"
)

func TestEnumerateCrashSchedulesCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EnumerateCrashSchedules(ctx, 4, 2, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEnumerateCrashSchedulesParallelCtxCancelMidRun cancels the
// enumeration once the schedule counter shows real progress and requires
// a prompt error return.
func TestEnumerateCrashSchedulesParallelCtxCancelMidRun(t *testing.T) {
	tracker := obs.NewTracker()
	ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tracker))
	defer cancel()
	go func() {
		for tracker.Counters()["schedules"] == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	start := time.Now()
	out, err := EnumerateCrashSchedules(ctx, 7, 4, 5)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("enumeration completed (%d schedules) before cancellation fired", len(out))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled enumeration took %v to return", elapsed)
	}
}
