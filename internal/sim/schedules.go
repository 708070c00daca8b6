package sim

import (
	"context"

	"pseudosphere/internal/obs"
)

// EnumerateCrashSchedules generates every crash schedule with at most f
// crashes among n1 processes within maxRound rounds, including every
// choice of partial final broadcast. The count grows quickly; intended for
// exhaustive adversarial testing at small scale.
//
// The enumeration visits each crash set exactly once, depth-first from
// the empty set (so the crash-free schedule comes first, then the sets
// whose smallest member is 0, then 1, and so on), and schedules are unique
// by construction. It checks ctx at every crash-set subtree and every 1024
// schedules inside one; after ctx fires the call returns ctx.Err(). An
// obs.Tracker carried by ctx has its "schedules" counter bumped subtree
// by subtree, so a complete run leaves it at len(out).
func EnumerateCrashSchedules(ctx context.Context, n1, f, maxRound int) ([]CrashSchedule, error) {
	schedCtr := obs.FromContext(ctx).Counter("schedules")
	var out []CrashSchedule
	var choose func(start int, chosen []int)
	choose = func(start int, chosen []int) {
		if ctx.Err() != nil {
			return
		}
		sub := expandCrashes(ctx, chosen, n1, maxRound)
		out = append(out, sub...)
		schedCtr.Add(uint64(len(sub)))
		if len(chosen) >= f {
			return
		}
		for i := start; i < n1; i++ {
			// Copy before recursing: append(chosen, i) could hand sibling
			// subtrees aliased backing arrays.
			next := make([]int, len(chosen)+1)
			copy(next, chosen)
			next[len(chosen)] = i
			choose(i+1, next)
		}
	}
	choose(0, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// expandCrashes enumerates round and partial-broadcast choices for a fixed
// set of crashing processes. The option product is exponential in the
// crash-set size, so ctx is checked every 1024 emitted schedules and the
// truncated list returned; callers discard it.
func expandCrashes(ctx context.Context, crashing []int, n1, maxRound int) []CrashSchedule {
	if len(crashing) == 0 {
		return []CrashSchedule{{}}
	}
	head, rest := crashing[0], crashing[1:]
	tails := expandCrashes(ctx, rest, n1, maxRound)
	var out []CrashSchedule
	receivers := make([]int, 0, n1-1)
	for q := 0; q < n1; q++ {
		if q != head {
			receivers = append(receivers, q)
		}
	}
	for round := 1; round <= maxRound; round++ {
		for mask := 0; mask < 1<<len(receivers); mask++ {
			delivered := make(map[int]bool)
			for i, q := range receivers {
				if mask&(1<<i) != 0 {
					delivered[q] = true
				}
			}
			for _, tail := range tails {
				if len(out)&1023 == 0 && ctx.Err() != nil {
					return out
				}
				cs := make(CrashSchedule, len(tail)+1)
				for p, c := range tail {
					cs[p] = c
				}
				cs[head] = Crash{Round: round, DeliveredTo: delivered}
				out = append(out, cs)
			}
		}
	}
	return out
}
