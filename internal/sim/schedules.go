package sim

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pseudosphere/internal/obs"
)

// EnumerateCrashSchedules generates every crash schedule with at most f
// crashes among n1 processes within maxRound rounds, including every
// choice of partial final broadcast. The count grows quickly; intended for
// exhaustive adversarial testing at small scale.
//
// The enumeration visits each crash set exactly once (subsets grouped by
// their smallest member), so schedules are unique by construction; a
// canonical-key set guards that invariant during collection instead of the
// former full-list dedup pass.
func EnumerateCrashSchedules(n1, f, maxRound int) []CrashSchedule {
	out, _ := EnumerateCrashSchedulesCtx(context.Background(), n1, f, maxRound)
	return out
}

// EnumerateCrashSchedulesCtx is EnumerateCrashSchedules threaded with a
// context: the enumeration is abandoned at the next crash-set subtree
// after ctx fires (returning ctx.Err()), and an obs.Tracker carried by
// the context has its "schedules" counter bumped subtree by subtree.
func EnumerateCrashSchedulesCtx(ctx context.Context, n1, f, maxRound int) ([]CrashSchedule, error) {
	schedCtr := obs.FromContext(ctx).Counter("schedules")
	var cancelled *atomic.Bool
	if ctx.Done() != nil {
		cancelled = new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
		defer stop()
	}
	var branches [][]CrashSchedule
	if f > 0 {
		branches = make([][]CrashSchedule, n1)
		for b := 0; b < n1; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			branches[b] = branchSchedules(b, n1, f, maxRound, schedCtr, cancelled)
		}
	}
	if cancelled != nil && cancelled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return mergeSchedules(branches), nil
}

// EnumerateCrashSchedulesParallelCtx is EnumerateCrashSchedulesCtx with
// the top-level branches (one per smallest crashing process) enumerated by
// a pool of workers. Branches are merged in branch order, so the output is
// identical to the serial enumeration for every worker count. Workers
// observe cancellation at the next branch claim and at every crash-set
// subtree inside a branch, the call returns ctx.Err(), and an obs.Tracker
// carried by the context has its "schedules" counter bumped subtree by
// subtree.
func EnumerateCrashSchedulesParallelCtx(ctx context.Context, n1, f, maxRound, workers int) ([]CrashSchedule, error) {
	if workers <= 1 || f <= 0 || n1 <= 1 {
		return EnumerateCrashSchedulesCtx(ctx, n1, f, maxRound)
	}
	var cancelled *atomic.Bool
	if ctx.Done() != nil {
		cancelled = new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
		defer stop()
	}
	schedCtr := obs.FromContext(ctx).Counter("schedules")
	branches := make([][]CrashSchedule, n1)
	if workers > n1 {
		workers = n1
	}
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled != nil && cancelled.Load() {
					return
				}
				b := int(atomic.AddInt64(&cursor, 1) - 1)
				if b >= n1 {
					return
				}
				branches[b] = branchSchedules(b, n1, f, maxRound, schedCtr, cancelled)
			}
		}()
	}
	wg.Wait()
	if cancelled != nil && cancelled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return mergeSchedules(branches), nil
}

// branchSchedules enumerates, depth-first, every schedule whose smallest
// crashing process is b, bumping the schedules counter subtree by subtree.
// A non-nil cancelled flag is probed once per crash-set subtree — a
// single branch can hold nearly the whole search space (branch 0 covers every schedule involving process 0), so
// branch-level granularity alone would not make cancellation prompt; the
// truncated result is discarded by the callers.
func branchSchedules(b, n1, f, maxRound int, schedCtr *obs.Counter, cancelled *atomic.Bool) []CrashSchedule {
	var out []CrashSchedule
	var choose func(start int, chosen []int)
	choose = func(start int, chosen []int) {
		if cancelled != nil && cancelled.Load() {
			return
		}
		sub := expandCrashes(chosen, n1, maxRound, cancelled)
		out = append(out, sub...)
		schedCtr.Add(uint64(len(sub)))
		if len(chosen) == f {
			return
		}
		for i := start; i < n1; i++ {
			// Copy before recursing: append(chosen, i) could hand sibling
			// branches aliased backing arrays, and the parallel enumerator
			// walks sibling subtrees concurrently.
			next := make([]int, len(chosen)+1)
			copy(next, chosen)
			next[len(chosen)] = i
			choose(i+1, next)
		}
	}
	choose(b+1, []int{b})
	return out
}

// mergeSchedules emits the crash-free schedule followed by the per-branch
// lists in branch order, keeping the first occurrence of each canonical
// key.
func mergeSchedules(branches [][]CrashSchedule) []CrashSchedule {
	total := 1
	for _, b := range branches {
		total += len(b)
	}
	out := make([]CrashSchedule, 0, total)
	seen := make(map[string]bool, total)
	emit := func(cs CrashSchedule) {
		k := scheduleKey(cs)
		if !seen[k] {
			seen[k] = true
			out = append(out, cs)
		}
	}
	emit(CrashSchedule{})
	for _, b := range branches {
		for _, cs := range b {
			emit(cs)
		}
	}
	return out
}

// expandCrashes enumerates round and partial-broadcast choices for a fixed
// set of crashing processes. The option product is exponential in the
// crash-set size, so a non-nil cancelled flag is probed every 1024 emitted
// schedules and the truncated list returned; callers discard it.
func expandCrashes(crashing []int, n1, maxRound int, cancelled *atomic.Bool) []CrashSchedule {
	if len(crashing) == 0 {
		return []CrashSchedule{{}}
	}
	head, rest := crashing[0], crashing[1:]
	tails := expandCrashes(rest, n1, maxRound, cancelled)
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
				if cancelled != nil && len(out)&1023 == 0 && cancelled.Load() {
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
