package sim

import (
	"context"
	"testing"
)

func BenchmarkRunSyncFailureFree(b *testing.B) {
	inputs := []string{"0", "1", "2", "3"}
	for i := 0; i < b.N; i++ {
		if _, err := RunSync(inputs, echoFactory(3), nil, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSyncWithCrash(b *testing.B) {
	inputs := []string{"0", "1", "2", "3"}
	crashes := CrashSchedule{0: {Round: 1, DeliveredTo: map[int]bool{1: true}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSync(inputs, echoFactory(3), crashes, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAsyncRandom(b *testing.B) {
	inputs := []string{"0", "1", "2", "3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := NewRandomAsyncSchedule(4, 1, int64(i))
		if _, err := RunAsync(inputs, echoFactory(3), nil, sched, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTimedLockstep(b *testing.B) {
	timing := Timing{C1: 1, C2: 2, D: 2}
	factory := func() TimedProtocol { return &timedEcho{decideAt: 10} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTimed([]string{"a", "b", "c"}, factory, timing,
			LockstepSchedule{Timing: timing}, nil, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateCrashSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateCrashSchedules(context.Background(), 4, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}
