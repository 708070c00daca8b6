package syncmodel

import (
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/topology"
)

// TestLemma16ViaMayerVietoris re-proves Lemma 16 the way the paper does:
// S^1(S^n) is the union of the pseudospheres S^1_K in lexicographic order,
// and iterating Theorem 2 over that order (with the Lemma 15 intersections
// checked homologically at each step) establishes the connectivity without
// ever computing the union's homology directly. The result must agree with
// the direct computation.
func TestLemma16ViaMayerVietoris(t *testing.T) {
	cases := []struct {
		n, k int
	}{
		{2, 1},
		{3, 1},
	}
	for _, c := range cases {
		input := inputSimplex("a", "b", "c", "d")[:c.n+1]
		var pieces []*topology.Complex
		for _, fail := range FailureSets(input.IDs(), c.k) {
			res, err := OneRoundExactly(input, fail)
			if err != nil {
				t.Fatal(err)
			}
			pieces = append(pieces, res.Complex)
		}
		target := c.n - (c.n - c.k) - 1 // = k-1
		proof := homology.ProveUnionConnectivity(pieces, target)
		if !proof.OK {
			t.Fatalf("n=%d k=%d: MV proof failed: %+v", c.n, c.k, proof)
		}
		if len(proof.Steps) != len(pieces)-1 {
			t.Fatalf("proof has %d steps for %d pieces", len(proof.Steps), len(pieces))
		}
		// Cross-check against the direct computation.
		direct, err := build(input, Params{PerRound: c.k, Total: c.k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !homology.IsKConnected(direct.Complex, target) {
			t.Fatalf("n=%d k=%d: direct computation disagrees with the MV proof", c.n, c.k)
		}
	}
}

// TestMVProofFailsWhereLemmaFails: with n < 2k the ordered union stops
// satisfying the Theorem 2 hypotheses at some step, matching the
// sharpness results.
func TestMVProofFailsWhereLemmaFails(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	n, k := 2, 2 // violates n >= 2k
	var pieces []*topology.Complex
	for _, fail := range FailureSets(input.IDs(), k) {
		res, err := OneRoundExactly(input, fail)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complex.IsEmpty() {
			continue // all-fail sets contribute nothing
		}
		pieces = append(pieces, res.Complex)
	}
	target := n - (n - k) - 1 // = 1
	proof := homology.ProveUnionConnectivity(pieces, target)
	if proof.OK {
		t.Fatal("MV proof should fail when n < 2k")
	}
}
