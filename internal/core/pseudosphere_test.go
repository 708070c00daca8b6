package core

import (
	"testing"
	"testing/quick"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/topology"
)

var binary = []string{"0", "1"}

// TestFigure1 reproduces Figure 1: the three-process binary pseudosphere
// psi(S^2; {0,1}) is (topologically) a 2-sphere: 6 vertices, 12 edges,
// 8 triangles, Euler characteristic 2, and the homology of S^2.
func TestFigure1(t *testing.T) {
	ps := mustUniform(ProcessSimplex(2), binary)
	fv := ps.FVector()
	if fv[0] != 6 || fv[1] != 12 || fv[2] != 8 {
		t.Fatalf("f-vector = %v, want [6 12 8]", fv)
	}
	if chi := ps.EulerCharacteristic(); chi != 2 {
		t.Fatalf("chi = %d, want 2", chi)
	}
	betti := homology.BettiZ2(ps)
	if betti[0] != 1 || betti[1] != 0 || betti[2] != 1 {
		t.Fatalf("betti = %v, want [1 0 1] (a 2-sphere)", betti)
	}
	if trivial, conclusive := homology.Pi1Trivial(ps); !trivial || !conclusive {
		t.Fatalf("pi1(psi(S^2;{0,1})) should be certifiably trivial: trivial=%v conclusive=%v", trivial, conclusive)
	}
}

// TestFigure2 reproduces Figure 2: psi(S^1; {0,1}) is a 4-cycle (a circle)
// and psi(S^1; {0,1,2}) is the complete bipartite graph K_{3,3}.
func TestFigure2(t *testing.T) {
	circle := mustUniform(ProcessSimplex(1), binary)
	fv := circle.FVector()
	if fv[0] != 4 || fv[1] != 4 {
		t.Fatalf("psi(S^1;{0,1}) f-vector = %v, want [4 4]", fv)
	}
	betti := homology.BettiZ2(circle)
	if betti[0] != 1 || betti[1] != 1 {
		t.Fatalf("betti = %v, want a circle [1 1]", betti)
	}

	k33 := mustUniform(ProcessSimplex(1), []string{"0", "1", "2"})
	fv = k33.FVector()
	if fv[0] != 6 || fv[1] != 9 {
		t.Fatalf("psi(S^1;{0,1,2}) f-vector = %v, want [6 9]", fv)
	}
	betti = homology.BettiZ2(k33)
	// K_{3,3}: connected, first Betti number = E - V + 1 = 4.
	if betti[0] != 1 || betti[1] != 4 {
		t.Fatalf("betti = %v, want [1 4]", betti)
	}
}

// TestSphereEquivalence checks the paper's naming claim in higher
// dimension: psi(S^n; {0,1}) has the homology of the n-sphere.
func TestSphereEquivalence(t *testing.T) {
	for n := 1; n <= 3; n++ {
		ps := mustUniform(ProcessSimplex(n), binary)
		betti := homology.BettiZ2(ps)
		for d := 0; d <= n; d++ {
			want := 0
			if d == 0 || d == n {
				want = 1
			}
			if betti[d] != want {
				t.Fatalf("n=%d: betti = %v, want homology of S^%d", n, betti, n)
			}
		}
	}
}

// TestLemma4Singleton checks the first identity of Lemma 4: a pseudosphere
// with singleton value sets is isomorphic to its base simplex.
func TestLemma4Singleton(t *testing.T) {
	base := ProcessSimplex(2)
	ps := mustUniform(base, []string{"x"})
	if got := len(ps.Facets()); got != 1 {
		t.Fatalf("facets = %d, want 1", got)
	}
	if ps.Size() != topology.ComplexOf(base).Size() {
		t.Fatalf("size = %d, want %d", ps.Size(), topology.ComplexOf(base).Size())
	}
	m := make(topology.VertexMap)
	for i, b := range base {
		_ = i
		m[VertexFor(b, "x")] = b
	}
	if err := topology.VerifyIsomorphism(ps, topology.ComplexOf(base), m); err != nil {
		t.Fatalf("Lemma 4(1) isomorphism: %v", err)
	}
}

// TestLemma4EmptySet checks the second identity: an empty value set
// eliminates its vertex.
func TestLemma4EmptySet(t *testing.T) {
	base := ProcessSimplex(2)
	with := mustPseudosphere(base, [][]string{{"0", "1"}, {}, {"0", "1"}})
	without := mustPseudosphere(mustSimplex(base[0], base[2]), [][]string{{"0", "1"}, {"0", "1"}})
	if !with.Equal(without) {
		t.Fatalf("Lemma 4(2) violated: %v vs %v", with, without)
	}
}

// TestLemma4Intersection checks the third identity:
// psi(S0;U) ∩ psi(S1;U') = psi(S0∩S1; U∩U') as concrete complexes.
func TestLemma4Intersection(t *testing.T) {
	s0 := mustSimplex(
		topology.Vertex{P: 0}, topology.Vertex{P: 1}, topology.Vertex{P: 2},
	)
	s1 := mustSimplex(
		topology.Vertex{P: 1}, topology.Vertex{P: 2}, topology.Vertex{P: 3},
	)
	u := [][]string{{"0", "1"}, {"0", "1", "2"}, {"1", "2"}}
	w := [][]string{{"1", "2"}, {"1"}, {"0", "2"}}
	ps0 := mustPseudosphere(s0, u)
	ps1 := mustPseudosphere(s1, w)
	inter := ps0.Intersection(ps1)

	// Common base: vertices 1 and 2; value sets are the pairwise
	// intersections aligned by process id.
	common := mustSimplex(topology.Vertex{P: 1}, topology.Vertex{P: 2})
	sets := IntersectSets([][]string{u[1], u[2]}, [][]string{w[0], w[1]})
	want := mustPseudosphere(common, sets)
	if !inter.Equal(want) {
		t.Fatalf("Lemma 4(3) violated:\n got %v\nwant %v", inter, want)
	}
}

// TestCorollary6 checks that psi(S^m; U_0..U_m) with nonempty sets is
// (m-1)-connected, sweeping small shapes.
func TestCorollary6(t *testing.T) {
	cases := [][][]string{
		{{"0"}, {"0", "1"}},
		{{"0", "1"}, {"0", "1"}, {"0", "1"}},
		{{"0", "1", "2"}, {"0"}, {"1", "2"}},
		{{"a", "b"}, {"a"}, {"b", "c"}, {"a", "c"}},
	}
	for i, sets := range cases {
		m := len(sets) - 1
		ps := mustPseudosphere(ProcessSimplex(m), sets)
		if !homology.IsKConnected(ps, m-1) {
			t.Fatalf("case %d: psi(S^%d; ...) not %d-connected", i, m, m-1)
		}
	}
}

// TestCorollary8 checks that a union of pseudospheres over value sets with
// a common element is (m-1)-connected.
func TestCorollary8(t *testing.T) {
	base := ProcessSimplex(2)
	families := [][]string{
		{"0", "1"},
		{"1", "2"},
		{"1", "3"},
	} // all contain "1"
	u := topology.NewComplex()
	for _, set := range families {
		u.UnionWith(mustUniform(base, set))
	}
	if !homology.IsKConnected(u, 1) {
		t.Fatalf("Corollary 8 union not 1-connected: betti=%v", homology.ReducedBettiZ2(u))
	}
}

// TestCorollary8NeedsCommonValue shows the hypothesis matters: binary
// pseudospheres over disjoint value sets form a disconnected union.
func TestCorollary8NeedsCommonValue(t *testing.T) {
	base := ProcessSimplex(1)
	u := mustUniform(base, []string{"0"}).Union(mustUniform(base, []string{"1"}))
	if homology.IsKConnected(u, 0) {
		t.Fatal("disjoint-value union should be disconnected")
	}
}

func TestExpectedSizeAndFacetCount(t *testing.T) {
	sets := [][]string{{"0", "1"}, {"0", "1", "2"}, {}, {"x"}}
	ps := mustPseudosphere(ProcessSimplex(3), sets)
	if got, want := ps.Size(), ExpectedSize(sets); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	if got, want := len(ps.Facets()), FacetCount(sets); got != want {
		t.Fatalf("facets = %d, want %d", got, want)
	}
}

// TestPseudosphereSizeQuick property-tests the size formula on random
// value-set shapes.
func TestPseudosphereSizeQuick(t *testing.T) {
	prop := func(shape [3]uint8) bool {
		sets := make([][]string, 3)
		for i, s := range shape {
			n := int(s % 4) // 0..3 values per position
			for j := 0; j < n; j++ {
				sets[i] = append(sets[i], string(rune('a'+j)))
			}
		}
		ps, err := Pseudosphere(ProcessSimplex(2), sets)
		if err != nil {
			return false
		}
		return ps.Size() == ExpectedSize(sets) && len(ps.Facets()) == FacetCount(sets) || ps.Size() == 0 && ExpectedSize(sets) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIDSet(t *testing.T) {
	ids := []int{3, 0, 2}
	enc := EncodeIDSet(ids)
	if enc != "{0,2,3}" {
		t.Fatalf("encode = %q", enc)
	}
	if enc := EncodeIDSet(nil); enc != "{}" {
		t.Fatalf("empty set encodes as %q", enc)
	}
}

func TestSubsetsAtLeast(t *testing.T) {
	subs := SubsetsAtLeast([]int{0, 1, 2}, 2)
	if len(subs) != 4 { // three 2-subsets and the full set
		t.Fatalf("subsets = %v", subs)
	}
	all := SubsetsAtLeast([]int{5, 7}, 0)
	if len(all) != 4 {
		t.Fatalf("subsets = %v", all)
	}
}

func TestInputFacets(t *testing.T) {
	fs := InputFacets(1, binary)
	if len(fs) != 4 {
		t.Fatalf("input facets = %d, want 4", len(fs))
	}
	ic, err := InputComplex(1, binary)
	if err != nil {
		t.Fatal(err)
	}
	u := topology.NewComplex()
	for _, s := range fs {
		u.Add(s)
	}
	if !u.Equal(ic) {
		t.Fatal("union of input facets differs from input complex")
	}
}
