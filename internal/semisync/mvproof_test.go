package semisync

import (
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/topology"
)

// TestLemma21ViaMayerVietoris re-proves the one-round case of Lemma 21 the
// paper's way: M^1(S^n) is the union of the pseudospheres psi(S\K; [F]) in
// the lexicographic (K, F) order, and iterating Theorem 2 along that order
// establishes (k-1)-connectivity, with the Lemma 20 intersections checked
// homologically at each step.
func TestLemma21ViaMayerVietoris(t *testing.T) {
	for _, c := range []struct {
		n, k int
	}{
		{2, 1},
		{3, 1},
	} {
		input := inputSimplex("a", "b", "c", "d")[:c.n+1]
		p := timing(c.k, c.k)
		var pieces []*topology.Complex
		for _, ip := range OrderedPseudospheres(input.IDs(), p) {
			res, err := OneRoundPattern(input, ip.Fail, ip.Pattern, p, -1)
			if err != nil {
				t.Fatal(err)
			}
			pieces = append(pieces, res.Complex)
		}
		target := c.k - 1
		proof := homology.ProveUnionConnectivity(pieces, target)
		if !proof.OK {
			t.Fatalf("n=%d k=%d: MV proof failed: %+v", c.n, c.k, proof)
		}
	}
}
