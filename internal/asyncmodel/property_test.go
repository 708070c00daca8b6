package asyncmodel

import (
	"testing"
	"testing/quick"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// TestRandomHeardSetsYieldMembers property-checks the model definition:
// ANY choice of heard-sets satisfying the n-f threshold produces a global
// state that is a facet of A^1.
func TestRandomHeardSetsYieldMembers(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := Params{N: 2, F: 1}
	oneRound, err := build(input, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(choices [3]uint8) bool {
		// Each process hears itself plus a nonempty subset of the other
		// two (n-f = 1): encode the choice as 1..3 (01, 10, 11).
		base := pc.InputViews(input)
		byID := map[int]*views.View{0: base[0], 1: base[1], 2: base[2]}
		facet := make([]topology.Vertex, 3)
		for i := 0; i < 3; i++ {
			mask := int(choices[i])%3 + 1
			heard := map[int]*views.View{i: byID[i]}
			others := []int{(i + 1) % 3, (i + 2) % 3}
			if mask&1 != 0 {
				heard[others[0]] = byID[others[0]]
			}
			if mask&2 != 0 {
				heard[others[1]] = byID[others[1]]
			}
			v := views.Next(i, heard)
			facet[i] = topology.Vertex{P: i, Label: v.Encode()}
		}
		s, err := topology.NewSimplex(facet...)
		if err != nil {
			return false
		}
		return oneRound.Complex.Has(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFacetViewsRespectThreshold property-checks the converse direction:
// every facet of A^1 has all participants hearing at least n-f+1 processes
// including themselves.
func TestFacetViewsRespectThreshold(t *testing.T) {
	input := inputSimplex("a", "b", "c", "d")
	p := Params{N: 3, F: 2}
	oneRound, err := build(input, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, facet := range oneRound.Complex.Facets() {
		for _, vert := range facet {
			view := oneRound.Views[vert]
			heard := view.HeardIDs()
			if len(heard) < p.N-p.F+1 {
				t.Fatalf("vertex %v heard %d senders, threshold is %d", vert, len(heard), p.N-p.F+1)
			}
			self := false
			for _, q := range heard {
				if q == vert.P {
					self = true
				}
			}
			if !self {
				t.Fatalf("vertex %v does not hear itself", vert)
			}
		}
	}
}
