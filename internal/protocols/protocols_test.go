package protocols

import (
	"context"
	"fmt"
	"testing"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/sim"
)

// allSchedules returns every crash schedule with at most f crashes among
// n1 processes within maxRound rounds.
func allSchedules(tb testing.TB, n1, f, maxRound int) []sim.CrashSchedule {
	tb.Helper()
	out, err := sim.EnumerateCrashSchedules(context.Background(), n1, f, maxRound)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestFloodSetFailureFree(t *testing.T) {
	out, err := sim.RunSync([]string{"b", "a", "c"}, NewFloodSet(1), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckConsensus(); err != nil {
		t.Fatal(err)
	}
	for p, d := range out.Decisions {
		if d != "a" {
			t.Fatalf("process %d decided %q, want the minimum a", p, d)
		}
	}
}

// TestFloodSetExhaustive checks consensus under EVERY crash schedule with
// at most f failures, for small systems.
func TestFloodSetExhaustive(t *testing.T) {
	cases := []struct {
		inputs []string
		f      int
	}{
		{[]string{"0", "1", "2"}, 1},
		{[]string{"1", "0", "1"}, 1},
		{[]string{"0", "1", "2", "3"}, 2},
	}
	for _, tc := range cases {
		rounds := tc.f + 1
		for _, cs := range allSchedules(t, len(tc.inputs), tc.f, rounds) {
			out, err := sim.RunSync(tc.inputs, NewFloodSet(tc.f), cs, rounds+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.CheckConsensus(); err != nil {
				t.Fatalf("inputs=%v f=%d crashes=%v: %v", tc.inputs, tc.f, cs, err)
			}
		}
	}
}

// TestFloodSetTightness shows f rounds are not enough: some crash schedule
// breaks agreement for an f-round flooding protocol, matching the f+1
// round bound (Theorem 18 with k=1).
func TestFloodSetTightness(t *testing.T) {
	inputs := []string{"0", "1", "1"}
	f := 1
	shortFlood := func() sim.RoundProtocol { return &floodSet{rounds: f} } // one round too few
	broke := false
	for _, cs := range allSchedules(t, len(inputs), f, f) {
		out, err := sim.RunSync(inputs, shortFlood, cs, f+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.CheckConsensus(); err != nil {
			broke = true
			break
		}
	}
	if !broke {
		t.Fatal("f-round flooding should violate consensus under some crash schedule")
	}
}

// TestSyncKSetExhaustive checks k-set agreement under every crash schedule
// for the floor(f/k)+1-round protocol.
func TestSyncKSetExhaustive(t *testing.T) {
	cases := []struct {
		inputs []string
		f, k   int
	}{
		{[]string{"0", "1", "2"}, 2, 2},
		{[]string{"0", "1", "2", "3"}, 2, 2},
		{[]string{"0", "1", "2", "3"}, 3, 2},
	}
	for _, tc := range cases {
		rounds := FloodSetRounds(tc.f, tc.k)
		want, err := bounds.SyncRoundUpperBound(tc.f, tc.k)
		if err != nil || rounds != want {
			t.Fatalf("round budget %d, want %d (%v)", rounds, want, err)
		}
		for _, cs := range allSchedules(t, len(tc.inputs), tc.f, rounds) {
			out, err := sim.RunSync(tc.inputs, NewSyncKSet(tc.f, tc.k), cs, rounds+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.CheckKSetAgreement(tc.k); err != nil {
				t.Fatalf("inputs=%v f=%d k=%d crashes=%v: %v", tc.inputs, tc.f, tc.k, cs, err)
			}
		}
	}
}

// TestAsyncKSetAcrossSchedules checks the k = f+1 asynchronous protocol
// under many random delivery schedules (Corollary 13's solvable side).
func TestAsyncKSetAcrossSchedules(t *testing.T) {
	inputs := []string{"3", "1", "2", "0"}
	f := 1
	k := f + 1
	for seed := int64(0); seed < 200; seed++ {
		sched := sim.NewRandomAsyncSchedule(len(inputs), f, seed)
		out, err := sim.RunAsync(inputs, NewAsyncKSet(), nil, sched, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.CheckKSetAgreement(k); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAsyncKSetWorstCase drives the adversarial schedule that maximizes
// decision spread: disjoint-ish heard sets. Decisions stay within f+1
// values.
func TestAsyncKSetWorstCase(t *testing.T) {
	inputs := []string{"0", "1", "2"}
	f := 1
	sched := &sim.FixedAsyncSchedule{HeardSets: map[int]map[int][]int{
		1: {
			0: {0, 1},
			1: {1, 2},
			2: {0, 2},
		},
	}}
	out, err := sim.RunAsync(inputs, NewAsyncKSet(), nil, sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckKSetAgreement(f + 1); err != nil {
		t.Fatal(err)
	}
	if err := out.CheckConsensus(); err == nil {
		t.Fatal("this schedule should produce two distinct decisions")
	}
}

// TestSemiSyncKSetLockstep runs the epoch protocol failure-free and with
// crashes; agreement holds and the decision time exceeds the Corollary 22
// lower bound.
func TestSemiSyncKSetLockstep(t *testing.T) {
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	inputs := []string{"2", "0", "1"}
	f, k := 1, 1
	run, err := sim.RunTimed(inputs, NewSemiSyncKSet(f, k), timing, sim.LockstepSchedule{Timing: timing}, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Outcome.CheckKSetAgreement(k); err != nil {
		t.Fatal(err)
	}
	lb, err := bounds.SemiSyncTimeLowerBound(f, k, timing.C1, timing.C2, timing.D)
	if err != nil {
		t.Fatal(err)
	}
	for p, at := range run.DecidedAt {
		if float64(at) < lb.Float() {
			t.Fatalf("process %d decided at %d, below the lower bound %v", p, at, lb)
		}
	}
}

// TestSemiSyncKSetWithCrashes sweeps crash times for the epoch protocol.
func TestSemiSyncKSetWithCrashes(t *testing.T) {
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	inputs := []string{"2", "0", "1"}
	f, k := 1, 1
	for crashAt := 0; crashAt <= 8; crashAt++ {
		for victim := 0; victim < len(inputs); victim++ {
			crashes := sim.TimedCrashSchedule{victim: {Time: crashAt}}
			run, err := sim.RunTimed(inputs, NewSemiSyncKSet(f, k), timing, sim.LockstepSchedule{Timing: timing}, crashes, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Outcome.CheckKSetAgreement(k); err != nil {
				t.Fatalf("victim=%d crashAt=%d: %v", victim, crashAt, err)
			}
		}
	}
}

// TestSemiSyncKSetTwoFailures exercises k=2 with two crashes.
func TestSemiSyncKSetTwoFailures(t *testing.T) {
	timing := sim.Timing{C1: 1, C2: 3, D: 3}
	inputs := []string{"3", "2", "1", "0"}
	f, k := 2, 2
	for crashA := 0; crashA <= 6; crashA += 3 {
		for crashB := 0; crashB <= 6; crashB += 3 {
			crashes := sim.TimedCrashSchedule{0: {Time: crashA}, 2: {Time: crashB}}
			run, err := sim.RunTimed(inputs, NewSemiSyncKSet(f, k), timing, sim.LockstepSchedule{Timing: timing}, crashes, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Outcome.CheckKSetAgreement(k); err != nil {
				t.Fatalf("crashA=%d crashB=%d: %v", crashA, crashB, err)
			}
		}
	}
}

func TestEncodeDecodeSet(t *testing.T) {
	set := map[string]bool{"b": true, "a": true}
	enc := encodeSet(set)
	if enc != "a,b" {
		t.Fatalf("encode = %q", enc)
	}
	dst := map[string]bool{"c": true}
	decodeSet(enc, dst)
	if len(dst) != 3 {
		t.Fatalf("decode merged = %v", dst)
	}
	decodeSet("", dst)
	if len(dst) != 3 {
		t.Fatal("empty payload must be a no-op")
	}
	if minOf(dst) != "a" {
		t.Fatalf("min = %q", minOf(dst))
	}
}

func ExampleNewFloodSet() {
	out, err := sim.RunSync([]string{"1", "0", "2"}, NewFloodSet(1), nil, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(out.Decisions[0], out.Decisions[1], out.Decisions[2])
	// Output: 0 0 0
}
