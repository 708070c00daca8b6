package similarity

import (
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/testutil/coreutil"
	"pseudosphere/internal/topology"
)

func v(p int, label string) topology.Vertex { return topology.Vertex{P: p, Label: label} }

func TestDegree(t *testing.T) {
	s := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	u := mustSimplex(v(0, "a"), v(1, "x"), v(2, "c"))
	if got := Degree(s, u); got != 2 {
		t.Fatalf("degree = %d, want 2", got)
	}
	if got := Degree(s, s); got != 3 {
		t.Fatalf("self degree = %d, want 3", got)
	}
}

func TestGraphOnPath(t *testing.T) {
	// Three triangles in a chain: A-B share 2 vertices, B-C share 1.
	a := mustSimplex(v(0, "a0"), v(1, "b0"), v(2, "c0"))
	b := mustSimplex(v(0, "a0"), v(1, "b0"), v(2, "c1"))
	c := mustSimplex(v(0, "a1"), v(1, "b1"), v(2, "c1"))
	complexOf := topology.ComplexOf(a, b, c)

	g1, err := NewGraph(complexOf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Connected() {
		t.Fatal("threshold 1 graph should be connected")
	}
	g2, err := NewGraph(complexOf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Connected() {
		t.Fatal("threshold 2 graph should disconnect at the B-C step")
	}
	if _, err := NewGraph(complexOf, 0); err == nil {
		t.Fatal("threshold 0 accepted")
	}
}

// TestAsyncSimilarityChain reconstructs the classical impossibility
// skeleton: in the one-round asynchronous complex over binary inputs, a
// similarity chain connects the all-zeros execution to the all-ones
// execution. Along such a chain a consensus protocol's decision cannot
// flip, which is the 1-dimensional reading of Corollary 13.
func TestAsyncSimilarityChain(t *testing.T) {
	res := binaryAsync()
	g, err := NewGraph(res.Complex, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("one-round async complex should have a connected similarity graph")
	}
	allInputs := func(val string) func(topology.Simplex) bool {
		return func(s topology.Simplex) bool {
			if s.Dim() != 2 {
				return false
			}
			for _, vert := range s {
				view := res.Views[vert]
				vals := view.ValuesSeen()
				if len(vals) != 1 || vals[0] != val {
					return false
				}
			}
			return true
		}
	}
	chain := g.Chain(allInputs("0"), allInputs("1"))
	if chain == nil {
		t.Fatal("no similarity chain from all-0 to all-1")
	}
	if err := ValidateChain(chain, 1); err != nil {
		t.Fatal(err)
	}
	if len(chain) < 2 {
		t.Fatalf("chain too short: %d", len(chain))
	}
}

func TestChainAbsentAcrossComponents(t *testing.T) {
	a := mustSimplex(v(0, "a"), v(1, "b"))
	b := mustSimplex(v(0, "x"), v(1, "y"))
	g, err := NewGraph(topology.ComplexOf(a, b), 1)
	if err != nil {
		t.Fatal(err)
	}
	chain := g.Chain(
		func(s topology.Simplex) bool { return strings.Contains(s.Key(), "a") },
		func(s topology.Simplex) bool { return strings.Contains(s.Key(), "x") },
	)
	if chain != nil {
		t.Fatalf("unexpected chain %v across components", chain)
	}
}

func TestValidateChainRejectsGap(t *testing.T) {
	a := mustSimplex(v(0, "a"), v(1, "b"))
	b := mustSimplex(v(0, "x"), v(1, "y"))
	if err := ValidateChain([]topology.Simplex{a, b}, 1); err == nil {
		t.Fatal("disjoint consecutive states accepted")
	}
}

// binaryAsync returns the one-round asynchronous complex over every
// binary input, n=2, f=1.
func binaryAsync() *pc.Result {
	p := asyncmodel.Params{N: 2, F: 1}
	return coreutil.MustBuildOverInputs(p.Operator(), p.N, []string{"0", "1"}, 1)
}
