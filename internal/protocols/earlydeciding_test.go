package protocols

import (
	"testing"

	"pseudosphere/internal/sim"
)

// TestEarlyDecidingExhaustive checks agreement under EVERY crash schedule.
func TestEarlyDecidingExhaustive(t *testing.T) {
	cases := []struct {
		inputs []string
		f      int
	}{
		{[]string{"0", "1", "2"}, 1},
		{[]string{"2", "0", "1", "1"}, 2},
	}
	for _, tc := range cases {
		for _, cs := range allSchedules(t, len(tc.inputs), tc.f, tc.f+1) {
			out, err := sim.RunSync(tc.inputs, NewEarlyDecidingConsensus(tc.f), cs, tc.f+2)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.CheckConsensus(); err != nil {
				t.Fatalf("inputs=%v f=%d crashes=%v: %v", tc.inputs, tc.f, cs, err)
			}
		}
	}
}

// TestEarlyDecidingStopsEarly shows the optimization: with f=2 but a
// failure-free execution, everyone decides within two rounds (FloodSet
// would take f+1 = 3).
func TestEarlyDecidingStopsEarly(t *testing.T) {
	inputs := []string{"2", "0", "1", "3"}
	f := 2
	out, err := sim.RunSync(inputs, NewEarlyDecidingConsensus(f), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckConsensus(); err != nil {
		t.Fatalf("early deciders should all have decided within 2 rounds: %v", err)
	}
	for p, d := range out.Decisions {
		if d != "0" {
			t.Fatalf("process %d decided %q, want 0", p, d)
		}
	}

	// The plain FloodSet really does need 3 rounds here: capped at 2, no
	// one decides.
	out, err = sim.RunSync(inputs, NewFloodSet(f), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 0 {
		t.Fatalf("FloodSet decided early: %v", out.Decisions)
	}
}

// TestEarlyDecidingMatchesActualFailures checks the f'+2 shape: with one
// actual crash (f' = 1) and budget f = 2, deciders finish within f'+2 = 3
// rounds even though f+1 = 3 too; with a clean suffix they finish in 2.
func TestEarlyDecidingMatchesActualFailures(t *testing.T) {
	inputs := []string{"2", "0", "1", "3"}
	f := 2
	// A crash visible in round 1 to everyone: round 2 looks clean, so
	// processes decide at round 2... unless the partial broadcast split
	// views. Either way 3 rounds always suffice.
	crashes := sim.CrashSchedule{0: {Round: 1}}
	out, err := sim.RunSync(inputs, NewEarlyDecidingConsensus(f), crashes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckConsensus(); err != nil {
		t.Fatal(err)
	}
	for p := 1; p < len(inputs); p++ {
		if _, ok := out.Decisions[p]; !ok {
			t.Fatalf("process %d undecided after f'+2 rounds", p)
		}
	}
}
