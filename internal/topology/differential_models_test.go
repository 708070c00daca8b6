package topology_test

import (
	"context"
	"fmt"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// These tests rebuild real protocol complexes facet by facet as the
// string-keyed definition (topology.KeySet, from the internal tests) and
// require the interned representation to agree on the canonical hash, the
// size, and the Betti numbers computed by the homology engine.

func diffInput(n int) topology.Simplex {
	verts := make([]topology.Vertex, n+1)
	for i := range verts {
		verts[i] = topology.Vertex{P: i, Label: fmt.Sprintf("v%d", i)}
	}
	return mustSimplex(verts...)
}

func referenceOf(c *topology.Complex) topology.KeySet {
	ref := topology.KeySet{}
	for _, s := range c.Facets() {
		ref.Add(s)
	}
	return ref
}

func requireAgreement(t *testing.T, ctx string, c *topology.Complex) {
	t.Helper()
	ref := referenceOf(c)
	if c.CanonicalHash() != ref.CanonicalHash() {
		t.Fatalf("%s: canonical hash differs between representations", ctx)
	}
	if c.Size() != len(ref) {
		t.Fatalf("%s: size %d != reference %d", ctx, c.Size(), len(ref))
	}
	eng := homology.NewEngine(0, nil)
	got, err := eng.BettiZ2Ctx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.BettiZ2Ctx(context.Background(), ref.Complex())
	if err != nil || len(got) != len(want) {
		t.Fatalf("%s: Betti %v != reference %v (%v)", ctx, got, want, err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Betti %v != reference %v", ctx, got, want)
		}
	}
}

func TestDifferentialRoundComplexes(t *testing.T) {
	async, err := roundop.Build(context.Background(), asyncmodel.Params{N: 2, F: 1}.Operator(), diffInput(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreement(t, "A^1 n=2 f=1", async.Complex)

	sync1, err := roundop.Build(context.Background(), syncmodel.Params{PerRound: 1, Total: 2}.Operator(), diffInput(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreement(t, "S^1 n=2 k=1", sync1.Complex)

	semi, err := roundop.Build(context.Background(), semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator(), diffInput(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreement(t, "M^1 n=2 k=1", semi.Complex)
}

func TestDifferentialPseudospheres(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		sets := make([][]string, n+1)
		for i := range sets {
			sets[i] = []string{"0", "1"}
		}
		ps, err := core.Pseudosphere(diffInput(n), sets)
		if err != nil {
			t.Fatal(err)
		}
		requireAgreement(t, fmt.Sprintf("psi(S^%d; {0,1})", n), ps)
	}
}
