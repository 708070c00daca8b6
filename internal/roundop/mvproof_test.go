package roundop_test

import (
	"context"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// The Mayer–Vietoris connectivity proof, written once against the generic
// round operator: the operator's branches are exactly the pseudosphere
// pieces the paper unions in its Lemma 16/19/21 arguments (and the single
// pseudosphere of Lemma 11 in the async model), so BranchResults feeds
// ProveUnionConnectivity directly for every model. Previously each model
// package carried its own copy of this harness — and the async model had
// none.

// proveViaBranches runs the MV prover over the operator's one-round branch
// pieces and cross-checks the verdict against the direct homology
// computation on the whole complex.
func proveViaBranches(t *testing.T, name string, op roundop.Operator, in topology.Simplex, target int) {
	t.Helper()
	results, err := roundop.BranchResults(op, in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var pieces []*topology.Complex
	for _, res := range results {
		if res.Complex.IsEmpty() {
			continue // all-fail branches contribute nothing
		}
		pieces = append(pieces, res.Complex)
	}
	proof := homology.ProveUnionConnectivity(pieces, target)
	if !proof.OK {
		t.Fatalf("%s: MV proof of %d-connectivity failed:\n%s", name, target, proof)
	}
	if len(proof.Steps) != len(pieces)-1 {
		t.Fatalf("%s: proof has %d steps for %d pieces", name, len(proof.Steps), len(pieces))
	}
	whole, err := roundop.Build(context.Background(), op, in, 1, roundop.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !homology.IsKConnected(whole.Complex, target) {
		t.Fatalf("%s: direct computation disagrees with the MV proof", name)
	}
}

// TestMVProofAsync: A^1(S^n) is a single pseudosphere (Lemma 11), so the
// "union" is one piece and Lemma 13 gives (f-1)-connectivity.
func TestMVProofAsync(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{2, 1}, {3, 1}, {3, 2}} {
		op := asyncmodel.Params{N: tc.n, F: tc.f}.Operator()
		proveViaBranches(t, "async", op, input(tc.n), tc.f-1)
	}
}

// TestMVProofSync re-proves Lemma 16 through the generic operator: the
// branches are the pseudospheres S^1_K and the target is k-1.
func TestMVProofSync(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 1}, {3, 1}} {
		op := syncmodel.Params{PerRound: tc.k, Total: tc.k}.Operator()
		proveViaBranches(t, "sync", op, input(tc.n), tc.k-1)
	}
}

// TestMVProofSemisync re-proves Lemma 21 through the generic operator: the
// branches are the pseudospheres M^1_{K,F} and the target is again k-1.
func TestMVProofSemisync(t *testing.T) {
	op := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}.Operator()
	proveViaBranches(t, "semisync", op, input(2), 0)
}
