package semisync

import (
	"testing"

	"pseudosphere/internal/homology"
)

// TestLemma21SideConditionSharp shows n >= (r+1)k is needed: beyond the
// usable round budget the complex disconnects, which is what makes
// decisions possible after floor(f/k) rounds plus the stretch.
func TestLemma21SideConditionSharp(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := timing(1, 2)
	res, err := build(input, p, 2) // n=2 < (r+1)k = 3
	if err != nil {
		t.Fatal(err)
	}
	if homology.IsKConnected(res.Complex, 0) {
		t.Fatalf("n=2 k=1 r=2: expected disconnection (betti %v)",
			homology.ReducedBettiZ2(res.Complex))
	}
}

// TestOneRoundStaysConnectedInBudget pins the positive side next to the
// negative one: the same system with r=1 (within budget) is connected.
func TestOneRoundStaysConnectedInBudget(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := timing(1, 1)
	res, err := build(input, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !homology.IsKConnected(res.Complex, 0) {
		t.Fatalf("n=2 k=1 r=1: expected connectivity (betti %v)",
			homology.ReducedBettiZ2(res.Complex))
	}
}
