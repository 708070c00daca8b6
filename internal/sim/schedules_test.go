package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pseudosphere/internal/obs"
)

// enumerate runs EnumerateCrashSchedules to completion under a fresh
// tracker and returns the schedules with the tracker's "schedules" count.
func enumerate(tb testing.TB, n1, f, maxRound int) ([]CrashSchedule, uint64) {
	tb.Helper()
	tr := obs.NewTracker()
	out, err := EnumerateCrashSchedules(obs.WithTracker(context.Background(), tr), n1, f, maxRound)
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
// the crash-free one included, and no schedule comes twice. order is a
// digest of the schedules' keys in the order returned, as the
// enumeration returned them when it merged per-branch lists: the
// crash-free schedule, then every set whose smallest member is 0, then 1,
// and so on.
func TestEnumerateCrashSchedulesCounts(t *testing.T) {
	cases := []struct {
		n1, f, maxRound, want int
		order                 string
	}{
		{3, 2, 2, 217, "b0caea2b05456cc8"},
		{3, 1, 1, 13, "9f767d2373653f1a"},
		{4, 2, 3, 3553, "2f4104fcb35af3b6"},
		{3, 0, 2, 1, "01ba4719c80b6fe9"},
	}
	for _, tc := range cases {
		got, counted := enumerate(t, tc.n1, tc.f, tc.maxRound)
		if len(got) != tc.want {
			t.Errorf("EnumerateCrashSchedules(%d,%d,%d) = %d schedules, want %d",
				tc.n1, tc.f, tc.maxRound, len(got), tc.want)
		}
		if counted != uint64(len(got)) {
			t.Errorf("EnumerateCrashSchedules(%d,%d,%d) counted %d schedules, returned %d",
				tc.n1, tc.f, tc.maxRound, counted, len(got))
		}
		keys := make(map[string]bool, len(got))
		order := sha256.New()
		for _, cs := range got {
			k := scheduleKey(cs)
			if keys[k] {
				t.Fatalf("duplicate schedule %v", cs)
			}
			keys[k] = true
			fmt.Fprintln(order, k)
			if err := cs.Validate(tc.n1, tc.maxRound); err != nil {
				t.Fatal(err)
			}
		}
		if d := fmt.Sprintf("%x", order.Sum(nil)[:8]); d != tc.order {
			t.Errorf("EnumerateCrashSchedules(%d,%d,%d) order digest %s, want %s",
				tc.n1, tc.f, tc.maxRound, d, tc.order)
		}
	}
}

// scheduleKey canonically encodes a schedule: crashing processes in
// ascending order, each with its round and sorted delivery set.
func scheduleKey(cs CrashSchedule) string {
	ps := make([]int, 0, len(cs))
	for p := range cs {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	var b strings.Builder
	for _, p := range ps {
		c := cs[p]
		b.WriteString(strconv.Itoa(p))
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(c.Round))
		b.WriteByte(':')
		qs := make([]int, 0, len(c.DeliveredTo))
		for q, ok := range c.DeliveredTo {
			if ok {
				qs = append(qs, q)
			}
		}
		sort.Ints(qs)
		for i, q := range qs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(q))
		}
		b.WriteByte(';')
	}
	return b.String()
}
