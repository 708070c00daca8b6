package sim

import (
	"context"
	"testing"
)

// Pins the exact schedule counts the enumeration must produce. For n1=3,
// f=2, maxRound=2: 1 crash-free schedule, 3 single-crash sets with
// 2 rounds x 2^2 deliveries = 8 schedules each, and 3 two-crash sets with
// 8^2 = 64 schedules each: 1 + 24 + 192 = 217. This guards the
// slice-aliasing fix in the subset recursion — an aliased `chosen` backing
// array corrupts sibling branches and changes these counts.
func TestEnumerateCrashSchedulesCounts(t *testing.T) {
	cases := []struct {
		n1, f, maxRound, want int
	}{
		{3, 2, 2, 217},
		{3, 1, 1, 13},
		{4, 2, 3, 3553},
		{3, 0, 2, 1},
	}
	for _, tc := range cases {
		got := EnumerateCrashSchedules(tc.n1, tc.f, tc.maxRound)
		if len(got) != tc.want {
			t.Errorf("EnumerateCrashSchedules(%d,%d,%d) = %d schedules, want %d",
				tc.n1, tc.f, tc.maxRound, len(got), tc.want)
		}
		keys := make(map[string]bool, len(got))
		for _, cs := range got {
			k := scheduleKey(cs)
			if keys[k] {
				t.Fatalf("duplicate schedule %v", cs)
			}
			keys[k] = true
			if err := cs.Validate(tc.n1, tc.maxRound); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The parallel enumeration must produce the identical schedule sequence
// for every worker count.
func TestEnumerateCrashSchedulesParallelMatchesSerial(t *testing.T) {
	want := EnumerateCrashSchedules(4, 2, 3)
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := EnumerateCrashSchedulesParallelCtx(context.Background(), 4, 2, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d schedules, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if scheduleKey(got[i]) != scheduleKey(want[i]) {
				t.Fatalf("workers=%d: schedule %d differs from serial order", workers, i)
			}
		}
	}
}

func BenchmarkEnumerateCrashSchedulesParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateCrashSchedulesParallelCtx(context.Background(), 4, 2, 3, 4); err != nil {
			b.Fatal(err)
		}
	}
}
