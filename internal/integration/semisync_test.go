package integration

import (
	"fmt"
	"testing"

	"pseudosphere/internal/protocols"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
)

// TestSemiSyncRuntimeMatchesComplex runs the one-round semi-synchronous
// full-information protocol on the virtual-time runtime under lockstep
// scheduling, for EVERY crash set of at most min(k, f) processes: each
// member crashes at each microround step, and that step's broadcast
// reaches each subset of the other processes. So every survivor sees a
// failing process last at microround F-1 or F, independently, and the
// views the runs reach must form exactly M^1 (Lemma 19).
func TestSemiSyncRuntimeMatchesComplex(t *testing.T) {
	for _, row := range []struct {
		n int
		p semisync.Params
	}{
		{2, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}},
		{3, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}},
		{2, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}},
		{2, semisync.Params{C1: 1, C2: 3, D: 3, PerRound: 2, Total: 2}},
		{3, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 3}},
	} {
		p := row.p
		t.Run(fmt.Sprintf("M^1 n=%d %+v", row.n, p), func(t *testing.T) {
			in, inputs := rowInput(row.n)
			n1 := len(inputs)
			timing := sim.Timing{C1: p.C1, C2: p.C2, D: p.D}
			subsets := 1 << (n1 - 1) // receivers of a crash step, among the others
			got := newRealized(n1)
			for fail := 0; fail < 1<<n1; fail++ {
				crashing := members(fail)
				if len(crashing) > min(p.PerRound, p.Total) {
					continue
				}
				// Digit i picks crashing[i]'s microround step and receivers.
				radix := make([]int, len(crashing))
				for i := range radix {
					radix[i] = p.Micro() * subsets
				}
				product(radix, func(digits []int) {
					crashes := make(sim.TimedCrashSchedule, len(crashing))
					for i, q := range crashing {
						step, recv := digits[i]/subsets, digits[i]%subsets
						to := make(map[int]bool)
						for j, other := range others(q, n1) {
							if recv&(1<<j) != 0 {
								to[other] = true
							}
						}
						crashes[q] = sim.TimedCrash{Time: step * p.C1, DeliveredTo: to}
					}
					run, err := sim.RunTimed(inputs, protocols.NewTimedFullInfo(), timing,
						sim.LockstepSchedule{Timing: timing}, crashes, 4*p.D)
					if err != nil {
						t.Fatal(err)
					}
					got.add(t, run.Outcome.Decisions, run.Outcome.Crashed)
				})
			}
			got.match(t, p.Operator(), in, 1)
		})
	}
}

// others lists the processes of 0..n1-1 other than q.
func others(q, n1 int) []int {
	out := make([]int, 0, n1-1)
	for p := 0; p < n1; p++ {
		if p != q {
			out = append(out, p)
		}
	}
	return out
}
