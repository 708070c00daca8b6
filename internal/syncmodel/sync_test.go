package syncmodel

import (
	"testing"

	"pseudosphere/internal/bounds"
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

// TestLemma14Isomorphism verifies Lemma 14: S^1_K(S) is isomorphic, via
// the paper's map L(P_i, M) = (s_i, K - ids(M)), to psi(S\K; 2^K).
func TestLemma14Isomorphism(t *testing.T) {
	input := inputSimplex("a", "b", "c", "d")
	for _, fail := range [][]int{{}, {0}, {2}, {0, 3}, {1, 2}} {
		oneRound, err := OneRoundExactly(input, fail)
		if err != nil {
			t.Fatalf("fail=%v: %v", fail, err)
		}
		ps, err := Lemma14Pseudosphere(input, fail)
		if err != nil {
			t.Fatalf("fail=%v: pseudosphere: %v", fail, err)
		}
		m, err := Lemma14Map(oneRound, input, fail)
		if err != nil {
			t.Fatalf("fail=%v: map: %v", fail, err)
		}
		if err := topology.VerifyIsomorphism(oneRound.Complex, ps, m); err != nil {
			t.Fatalf("fail=%v: Lemma 14 isomorphism: %v", fail, err)
		}
	}
}

// TestFigure3 reproduces Figure 3: the one-round three-process complex
// with at most one failure. Each process has 3 possible views (heard all,
// or missed exactly one of the two others), the failure-free execution is
// a single triangle, and each single-failure pseudosphere contributes 4
// edges of which one is a face of the triangle: 1 + 3*3 = 10 facets.
func TestFigure3(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{PerRound: 1, Total: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Complex.Vertices()); got != 9 {
		t.Fatalf("vertices = %d, want 9", got)
	}
	facets := res.Complex.Facets()
	var triangles, edges int
	for _, f := range facets {
		switch f.Dim() {
		case 2:
			triangles++
		case 1:
			edges++
		default:
			t.Fatalf("unexpected facet %v", f)
		}
	}
	if triangles != 1 || edges != 9 {
		t.Fatalf("facets: %d triangles, %d edges; want 1 and 9", triangles, edges)
	}
	// The failure-free pseudosphere is degenerate (a single simplex).
	ff, err := OneRoundExactly(input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Complex.Facets()) != 1 {
		t.Fatalf("failure-free complex has %d facets", len(ff.Complex.Facets()))
	}
}

// TestLemma15 verifies the intersection lemma concretely: for every
// failure set K_t (in the paper's order), the intersection of the union of
// the earlier complexes with S^1_{K_t} equals the union over P in K_t of
// the executions in which every survivor hears P.
func TestLemma15(t *testing.T) {
	cases := []struct {
		labels []string
		k      int
	}{
		{[]string{"a", "b", "c"}, 1},
		{[]string{"a", "b", "c", "d"}, 1},
		{[]string{"a", "b", "c", "d"}, 2},
	}
	for _, tc := range cases {
		input := inputSimplex(tc.labels...)
		sets := FailureSets(input.IDs(), tc.k)
		prefix := topology.NewComplex()
		for ti, fail := range sets {
			cur, err := OneRoundExactly(input, fail)
			if err != nil {
				t.Fatal(err)
			}
			if ti > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := Lemma15RHS(input, fail)
				if err != nil {
					t.Fatal(err)
				}
				if !lhs.Equal(rhs.Complex) {
					t.Fatalf("labels=%v k=%d K_t=%v: Lemma 15 violated:\nlhs %v\nrhs %v",
						tc.labels, tc.k, fail, lhs, rhs.Complex)
				}
			}
			prefix.UnionWith(cur.Complex)
		}
	}
}

// TestLemma16Connectivity verifies that S^1(S^m) is (m-(n-k)-1)-connected
// when n >= 2k.
func TestLemma16Connectivity(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	cases := []struct {
		n, k, m int
	}{
		{2, 1, 2},
		{3, 1, 3},
		{3, 1, 2},
		{4, 2, 4},
		{4, 1, 4},
	}
	for _, c := range cases {
		if c.n < 2*c.k {
			t.Fatalf("case %+v violates n >= 2k", c)
		}
		input := inputSimplex(labels[:c.n+1]...)
		sub := input[:c.m+1]
		res, err := build(sub, Params{PerRound: c.k, Total: c.k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		target := c.m - (c.n - c.k) - 1
		if !homology.IsKConnected(res.Complex, target) {
			t.Fatalf("n=%d k=%d m=%d: S^1 not %d-connected (betti %v)",
				c.n, c.k, c.m, target, homology.ReducedBettiZ2(res.Complex))
		}
	}
}

// TestLemma17Connectivity verifies the r-round version: S^r(S^m) is
// (m-(n-k)-1)-connected when n >= rk+k.
func TestLemma17Connectivity(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	cases := []struct {
		n, k, r, m int
	}{
		{2, 1, 1, 2},
		{3, 1, 2, 3},
		{3, 1, 2, 2},
		{4, 1, 3, 4},
		{4, 2, 1, 4},
	}
	for _, c := range cases {
		if c.n < c.r*c.k+c.k {
			t.Fatalf("case %+v violates n >= rk+k", c)
		}
		input := inputSimplex(labels[:c.n+1]...)
		sub := input[:c.m+1]
		res, err := build(sub, Params{PerRound: c.k, Total: c.r * c.k}, c.r)
		if err != nil {
			t.Fatal(err)
		}
		target := c.m - (c.n - c.k) - 1
		if !homology.IsKConnected(res.Complex, target) {
			t.Fatalf("n=%d k=%d r=%d m=%d: S^r not %d-connected (betti %v)",
				c.n, c.k, c.r, c.m, target, homology.ReducedBettiZ2(res.Complex))
		}
	}
}

// TestTheorem18Boundary drives the round bound end to end on the smallest
// nontrivial instance: 3 processes, f=1, k=1 (consensus). Theorem 18 gives
// floor(1/1)+1 = 2 rounds; so one round admits no consensus map, while two
// rounds do.
func TestTheorem18Boundary(t *testing.T) {
	want, err := bounds.SyncRoundLowerBound(2, 1, 1)
	if err != nil || want != 2 {
		t.Fatalf("bound = %d, %v; want 2", want, err)
	}
	values := []string{"0", "1"}
	p := Params{PerRound: 1, Total: 1}

	oneRound := coreutil.MustBuildOverInputs(p.Operator(), 2, values, 1)
	ann := task.AnnotateViews(oneRound.Complex, oneRound.Views)
	if _, found, err := task.FindDecision(ann, 1, 0); err != nil || found {
		t.Fatalf("1-round consensus map found=%v err=%v; want none", found, err)
	}

	twoRounds := coreutil.MustBuildOverInputs(p.Operator(), 2, values, 2)
	ann = task.AnnotateViews(twoRounds.Complex, twoRounds.Views)
	dm, found, err := task.FindDecision(ann, 1, 0)
	if err != nil || !found {
		t.Fatalf("2-round consensus map found=%v err=%v; want one", found, err)
	}
	if err := task.CheckDecision(ann, dm, 1); err != nil {
		t.Fatalf("returned map does not solve consensus: %v", err)
	}
}

// TestRoundsRespectsTotalBudget checks that the total failure budget caps
// cumulative failures across rounds: with Total=1, two rounds can lose at
// most one process overall.
func TestRoundsRespectsTotalBudget(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{PerRound: 1, Total: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Complex.Facets() {
		if f.Dim() < 1 {
			t.Fatalf("facet %v implies two failures with budget 1", f)
		}
	}
}

// TestFailureSetsOrder checks the paper's ordering: by cardinality, then
// lexicographic.
func TestFailureSetsOrder(t *testing.T) {
	got := FailureSets([]int{0, 1, 2}, 2)
	want := [][]int{{}, {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("at %d: got %v want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("at %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}
