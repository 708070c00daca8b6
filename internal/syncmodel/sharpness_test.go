package syncmodel

import (
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/task"
	"pseudosphere/internal/testutil/coreutil"
)

// TestLemma16SideConditionSharp shows the n >= 2k hypothesis matters: with
// n < 2k the one-round complex fails to reach the stated connectivity —
// in fact it disconnects, which is exactly what lets wait-free synchronous
// protocols start deciding.
func TestLemma16SideConditionSharp(t *testing.T) {
	cases := []struct {
		n, k int
	}{
		{2, 2}, // wait-free three processes
		{3, 2}, // 3 < 2k = 4
	}
	for _, c := range cases {
		input := inputSimplex("a", "b", "c", "d")[:c.n+1]
		res, err := build(input, Params{PerRound: c.k, Total: c.k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		target := c.n - (c.n - c.k) - 1 // = k-1
		if homology.IsKConnected(res.Complex, target) {
			t.Fatalf("n=%d k=%d < 2k: expected connectivity to fail at %d (betti %v)",
				c.n, c.k, target, homology.ReducedBettiZ2(res.Complex))
		}
	}
}

// TestLemma17SideConditionSharp shows n >= rk+k is needed: with the budget
// exhausted relative to n, the r-round complex disconnects.
func TestLemma17SideConditionSharp(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{PerRound: 1, Total: 2}, 2) // n=2 < rk+k=3
	if err != nil {
		t.Fatal(err)
	}
	if homology.IsKConnected(res.Complex, 0) {
		t.Fatalf("n=2 k=1 r=2: expected disconnection (betti %v)",
			homology.ReducedBettiZ2(res.Complex))
	}
}

// TestDisconnectionEnablesDecision closes the loop: exactly where the
// connectivity lemma's hypothesis fails (n=2, f=2, k=1, r=2 — the n < f+k
// regime of Theorem 18, bound floor(f/k) = 2), a consensus decision map
// exists on the now-disconnected complex.
func TestDisconnectionEnablesDecision(t *testing.T) {
	res := coreutil.MustBuildOverInputs(Params{PerRound: 1, Total: 2}.Operator(), 2, []string{"0", "1"}, 2)
	ann := task.AnnotateViews(res.Complex, res.Views)
	dm, found, err := task.FindDecision(ann, 1, 0)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v; Theorem 18 allows 2 rounds here (n < f+k)", found, err)
	}
	if err := task.CheckDecision(ann, dm, 1); err != nil {
		t.Fatal(err)
	}

	// And one round is still not enough: floor(f/k) = 2.
	one := coreutil.MustBuildOverInputs(Params{PerRound: 1, Total: 2}.Operator(), 2, []string{"0", "1"}, 1)
	ann = task.AnnotateViews(one.Complex, one.Views)
	if _, found, err := task.FindDecision(ann, 1, 0); err != nil || found {
		t.Fatalf("found=%v err=%v; one round must not suffice", found, err)
	}
}
