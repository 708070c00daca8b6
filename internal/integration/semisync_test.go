package integration

import (
	"context"
	"testing"

	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/topology"
)

// TestSemiSyncRuntimeMatchesComplex runs the one-round semi-synchronous
// full-information protocol on the virtual-time runtime under lockstep
// scheduling, crashing each process at each possible step boundary, and
// checks the surviving views always form a simplex of M^1.
func TestSemiSyncRuntimeMatchesComplex(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	input := inputSimplex(inputs...)
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	p := semisync.Params{C1: timing.C1, C2: timing.C2, D: timing.D, PerRound: 1, Total: 1}
	combinatorial, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(crashes sim.TimedCrashSchedule) topology.Simplex {
		t.Helper()
		run, err := sim.RunTimed(inputs, protocols.NewTimedFullInfo(), timing,
			sim.LockstepSchedule{Timing: timing}, crashes, 4*timing.D)
		if err != nil {
			t.Fatal(err)
		}
		return facetFromRun(t, run.Outcome.Decisions)
	}

	// Failure-free: the everyone-at-microround-p facet.
	facet := runOnce(nil)
	if facet.Dim() != 2 {
		t.Fatalf("failure-free facet %v has wrong dimension", facet)
	}
	if !combinatorial.Complex.Has(facet) {
		t.Fatalf("failure-free execution %v not in M^1", facet)
	}

	// Each victim crashing at each step boundary within round 1, plus
	// immediately at time 0 (before sending anything).
	micro := p.Micro()
	for victim := 0; victim < len(inputs); victim++ {
		for step := 0; step <= micro; step++ {
			crashAt := step * timing.C1
			facet := runOnce(sim.TimedCrashSchedule{victim: {Time: crashAt}})
			if facet.HasID(victim) {
				t.Fatalf("victim %d produced a vertex", victim)
			}
			if !combinatorial.Complex.Has(facet) {
				t.Fatalf("victim=%d crashAt=%d: execution %v not in M^1",
					victim, crashAt, facet)
			}
		}
	}
}
