package sim

import (
	"context"
	"testing"

	"pseudosphere/internal/obs"
)

// enumerate runs EnumerateCrashSchedules to completion under a fresh
// tracker and returns the schedules with the tracker's "schedules" count.
func enumerate(tb testing.TB, n1, f, maxRound, workers int) ([]CrashSchedule, uint64) {
	tb.Helper()
	tr := obs.NewTracker()
	out, err := EnumerateCrashSchedules(obs.WithTracker(context.Background(), tr), n1, f, maxRound, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return out, tr.Counters()["schedules"]
}

// Pins the exact schedule counts the enumeration must produce. For n1=3,
// f=2, maxRound=2: 1 crash-free schedule, 3 single-crash sets with
// 2 rounds x 2^2 deliveries = 8 schedules each, and 3 two-crash sets with
// 8^2 = 64 schedules each: 1 + 24 + 192 = 217. This guards the
// slice-aliasing fix in the subset recursion — an aliased `chosen` backing
// array corrupts sibling branches and changes these counts. The
// "schedules" counter of a complete run counts every schedule returned,
// the crash-free one included, at one worker and at four.
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
		for _, workers := range []int{1, 4} {
			got, counted := enumerate(t, tc.n1, tc.f, tc.maxRound, workers)
			if len(got) != tc.want {
				t.Errorf("EnumerateCrashSchedules(%d,%d,%d) at %d workers = %d schedules, want %d",
					tc.n1, tc.f, tc.maxRound, workers, len(got), tc.want)
			}
			if counted != uint64(len(got)) {
				t.Errorf("EnumerateCrashSchedules(%d,%d,%d) at %d workers counted %d schedules, returned %d",
					tc.n1, tc.f, tc.maxRound, workers, counted, len(got))
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
}

// The enumeration must produce the same schedule sequence at every worker
// count as at one.
func TestEnumerateCrashSchedulesParallelMatchesSerial(t *testing.T) {
	want, _ := enumerate(t, 4, 2, 3, 1)
	for _, workers := range []int{0, 2, 4, 16} {
		got, _ := enumerate(t, 4, 2, 3, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d schedules, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if scheduleKey(got[i]) != scheduleKey(want[i]) {
				t.Fatalf("workers=%d: schedule %d differs from the one-worker order", workers, i)
			}
		}
	}
}

func BenchmarkEnumerateCrashSchedulesParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateCrashSchedules(context.Background(), 4, 2, 3, 4); err != nil {
			b.Fatal(err)
		}
	}
}
