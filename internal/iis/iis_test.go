package iis

import (
	"context"
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/task"
	"pseudosphere/internal/testutil/coreutil"
	"pseudosphere/internal/topology"
)

func inputSimplex(labels ...string) topology.Simplex {
	vs := make([]topology.Vertex, len(labels))
	for i, l := range labels {
		vs[i] = topology.Vertex{P: i, Label: l}
	}
	return mustSimplex(vs...)
}

func TestFubiniNumbers(t *testing.T) {
	want := []int{1, 1, 3, 13, 75, 541}
	for n, w := range want {
		if got := FubiniNumber(n); got != w {
			t.Fatalf("Fubini(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestOrderedPartitionsCount(t *testing.T) {
	for n := 0; n <= 4; n++ {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		if got := len(OrderedPartitions(ids)); got != FubiniNumber(n) {
			t.Fatalf("n=%d: %d partitions, want %d", n, got, FubiniNumber(n))
		}
	}
}

// TestOneRoundIsChromaticSubdivision checks the facet count (Fubini) and
// the dimension of the one-round complex: the standard chromatic
// subdivision of the input simplex.
func TestOneRoundIsChromaticSubdivision(t *testing.T) {
	for _, labels := range [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}} {
		input := inputSimplex(labels...)
		res := oneRound(t, input)
		n1 := len(labels)
		facets := res.Complex.Facets()
		if len(facets) != FubiniNumber(n1) {
			t.Fatalf("%d processes: %d facets, want Fubini %d", n1, len(facets), FubiniNumber(n1))
		}
		for _, f := range facets {
			if f.Dim() != n1-1 {
				t.Fatalf("facet %v has dim %d, want %d (pure complex)", f, f.Dim(), n1-1)
			}
		}
	}
}

// TestOneRoundContractible verifies the subdivision property: the
// one-round complex over a single input simplex has trivial reduced
// homology and trivial fundamental group, like the simplex it subdivides.
func TestOneRoundContractible(t *testing.T) {
	for _, labels := range [][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}} {
		res := oneRound(t, inputSimplex(labels...))
		betti := homology.ReducedBettiZ2(res.Complex)
		for d, b := range betti {
			if b != 0 {
				t.Fatalf("%d processes: reduced betti %v nonzero at dim %d", len(labels), betti, d)
			}
		}
		if trivial, conclusive := homology.Pi1Trivial(res.Complex); conclusive && !trivial {
			t.Fatalf("%d processes: nontrivial pi1", len(labels))
		}
	}
}

// TestTwoRoundsStillContractible iterates the construction: IIS_2 over a
// single input simplex remains contractible (it is a finer subdivision).
func TestTwoRoundsStillContractible(t *testing.T) {
	res, err := build(inputSimplex("a", "b"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Complex.Facets()); got != 9 { // 3 facets, each subdivided into 3
		t.Fatalf("IIS_2 facets = %d, want 9", got)
	}
	betti := homology.ReducedBettiZ2(res.Complex)
	for d, b := range betti {
		if b != 0 {
			t.Fatalf("IIS_2 reduced betti %v nonzero at dim %d", betti, d)
		}
	}
}

// TestWaitFreeConsensusImpossibleOnIIS mirrors the paper's comparison: the
// IIS one-round complex over the binary input complex admits no consensus
// decision map (the wait-free impossibility in the IIS model), matching
// the asynchronous message-passing result.
func TestWaitFreeConsensusImpossibleOnIIS(t *testing.T) {
	n := 1 // two processes, wait-free
	res := coreutil.MustBuildOverInputs(Operator(), n, []string{"0", "1"}, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)
	if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, 1, 0, 1); err != nil || found {
		t.Fatalf("found=%v err=%v; wait-free IIS consensus must be impossible", found, err)
	}
}

// TestViewsSeeOwnBlockAndEarlier checks the immediacy property: in every
// facet, views are totally ordered by containment within blocks — the
// defining structure of immediate snapshots.
func TestViewsSeeOwnBlockAndEarlier(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res := oneRound(t, input)
	for _, facet := range res.Complex.Facets() {
		// Collect heard sets and check they form a chain under inclusion
		// when grouped by size.
		sets := make([]map[int]bool, 0, len(facet))
		for _, vert := range facet {
			view := res.Views[vert]
			hs := make(map[int]bool)
			for _, q := range view.HeardIDs() {
				hs[q] = true
			}
			if !hs[vert.P] {
				t.Fatalf("process %d does not see itself", vert.P)
			}
			sets = append(sets, hs)
		}
		for _, a := range sets {
			for _, b := range sets {
				if !subsetOf(a, b) && !subsetOf(b, a) {
					t.Fatalf("heard sets %v and %v incomparable; immediate snapshots are chains", a, b)
				}
			}
		}
	}
}

func subsetOf(a, b map[int]bool) bool {
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}
