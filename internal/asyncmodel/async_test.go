package asyncmodel

import (
	"context"
	"sync"
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/task"
	"pseudosphere/internal/testutil/coreutil"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

func inputSimplex(labels ...string) topology.Simplex {
	vs := make([]topology.Vertex, len(labels))
	for i, l := range labels {
		vs[i] = topology.Vertex{P: i, Label: l}
	}
	return mustSimplex(vs...)
}

// TestLemma11Isomorphism verifies Lemma 11 mechanically: the enumerated
// one-round complex A^1(S^n) is isomorphic, via the paper's explicit
// vertex map L, to the pseudosphere psi(S^n; 2^{P-{P_i}}_{>=n-f}).
func TestLemma11Isomorphism(t *testing.T) {
	cases := []Params{
		{N: 2, F: 1},
		{N: 2, F: 2},
		{N: 3, F: 1},
		{N: 3, F: 2},
	}
	for _, p := range cases {
		input := inputSimplex("a", "b", "c", "d")[:p.N+1]
		oneRound, err := build(input, p, 1)
		if err != nil {
			t.Fatalf("n=%d f=%d: build: %v", p.N, p.F, err)
		}
		ps, err := Lemma11Pseudosphere(input, p)
		if err != nil {
			t.Fatalf("n=%d f=%d: pseudosphere: %v", p.N, p.F, err)
		}
		m, err := Lemma11Map(oneRound, input)
		if err != nil {
			t.Fatalf("n=%d f=%d: map: %v", p.N, p.F, err)
		}
		if err := topology.VerifyIsomorphism(oneRound.Complex, ps, m); err != nil {
			t.Fatalf("n=%d f=%d: Lemma 11 isomorphism: %v", p.N, p.F, err)
		}
	}
}

// TestOneRoundParallelMatchesOneRound: the one-round complex Build
// returns is the Lemma 11 pseudosphere.
func TestOneRoundParallelMatchesOneRound(t *testing.T) {
	p := Params{N: 3, F: 2}
	input := inputSimplex("a", "b", "c", "d")
	got, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Lemma11Pseudosphere(input, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Lemma11Map(got, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.VerifyIsomorphism(got.Complex, ps, m); err != nil {
		t.Fatalf("Build's complex is not the Lemma 11 pseudosphere: %v", err)
	}
}

// TestRoundsParallelMatchesSerial shares one operator value between
// concurrent builds: its option tables are read from every build at once
// (the -race run checks the operator keeps no mutable state), and each
// build must match one made before any of them (roundop's differential
// table pins builds of the same parameters).
func TestRoundsParallelMatchesSerial(t *testing.T) {
	p := Params{N: 2, F: 2}
	input := inputSimplex("a", "b", "c")
	op := p.Operator()
	want, err := roundop.Build(context.Background(), op, input, 2, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, 4)
	var wg sync.WaitGroup
	for g := range hashes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := roundop.Build(context.Background(), op, input, 2, roundop.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			hashes[g] = res.Complex.CanonicalHash()
		}(g)
	}
	wg.Wait()
	for g, h := range hashes {
		if h != want.Complex.CanonicalHash() {
			t.Errorf("concurrent build %d diverged from the reference build", g)
		}
	}
}

// TestOneRoundFacetCount checks the combinatorics: each process
// independently picks a heard-set of size >= n-f among the n others, so
// the facet count is (sum_{s>=n-f} C(n,s))^(n+1).
func TestOneRoundFacetCount(t *testing.T) {
	p := Params{N: 2, F: 1}
	oneRound, err := build(inputSimplex("a", "b", "c"), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per process: subsets of the 2 others with size >= 1: 3 choices.
	if got := len(oneRound.Complex.Facets()); got != 27 {
		t.Fatalf("facets = %d, want 27", got)
	}

	p = Params{N: 3, F: 3}
	oneRound, err = build(inputSimplex("a", "b", "c", "d"), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per process: all 8 subsets of the 3 others.
	if got := len(oneRound.Complex.Facets()); got != 8*8*8*8 {
		t.Fatalf("facets = %d, want 4096", got)
	}
}

// TestEmptyBelowThreshold checks the paper's convention: A^1(S^m) is empty
// when fewer than n-f+1 processes participate.
func TestEmptyBelowThreshold(t *testing.T) {
	p := Params{N: 3, F: 1}
	small := inputSimplex("a", "b") // m = 1 < n-f = 2
	oneRound, err := build(small, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !oneRound.Complex.IsEmpty() {
		t.Fatalf("A^1(S^1) should be empty for n=3, f=1; got %v", oneRound.Complex)
	}
}

// TestLemma12Connectivity verifies A^r(S^m) is (m-(n-f)-1)-connected on
// every tractable instance.
func TestLemma12Connectivity(t *testing.T) {
	type tc struct {
		p      Params
		m      int
		rounds int
	}
	cases := []tc{
		{Params{N: 2, F: 1}, 2, 1},
		{Params{N: 2, F: 1}, 2, 2},
		{Params{N: 2, F: 1}, 1, 1}, // target -1: just nonempty
		{Params{N: 2, F: 2}, 2, 1},
		{Params{N: 2, F: 2}, 2, 2},
		{Params{N: 2, F: 2}, 1, 1},
		{Params{N: 3, F: 1}, 3, 1},
		{Params{N: 3, F: 2}, 3, 1},
		{Params{N: 3, F: 3}, 3, 1},
	}
	labels := []string{"a", "b", "c", "d"}
	for _, c := range cases {
		input := inputSimplex(labels...)[:c.m+1]
		res, err := build(input, c.p, c.rounds)
		if err != nil {
			t.Fatal(err)
		}
		target := c.m - (c.p.N - c.p.F) - 1
		if !homology.IsKConnected(res.Complex, target) {
			t.Fatalf("n=%d f=%d m=%d r=%d: not %d-connected (reduced betti %v)",
				c.p.N, c.p.F, c.m, c.rounds, target, homology.ReducedBettiZ2(res.Complex))
		}
	}
}

// TestRoundsFacetsSuffice cross-checks the facet-only induction against the
// union over every simplex of the one-round complex, on a small instance.
func TestRoundsFacetsSuffice(t *testing.T) {
	p := Params{N: 2, F: 1}
	input := inputSimplex("a", "b", "c")
	viaFacets, err := build(input, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Union over all simplexes T of A^1(S) of A^1(T), reconstructing the
	// views behind each vertex of T.
	oneRound, err := build(input, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := pc.NewResult()
	for _, sim := range oneRound.Complex.AllSimplices() {
		cur := make([]*views.View, len(sim))
		for i, vert := range sim {
			cur[i] = oneRound.Views[vert]
		}
		branches, err := p.Operator().Branches(cur)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range branches {
			all.Merge(roundop.Product(b.Opts))
		}
	}
	if !viaFacets.Complex.Equal(all.Complex) {
		t.Fatalf("facet induction differs from all-simplex induction: %v vs %v",
			viaFacets.Complex, all.Complex)
	}
}

// TestCorollary13Obstruction verifies the paper's impossibility argument:
// for k <= f, the protocol complex of every input pseudosphere is
// (k-1)-connected (Theorem 9 hypothesis), so no k-set agreement decision
// map exists; and the exact search confirms nonexistence.
func TestCorollary13Obstruction(t *testing.T) {
	p := Params{N: 2, F: 1}
	k := 1
	values := []string{"0", "1"}
	build := func(u []string) *topology.Complex {
		res := coreutil.MustBuildOverInputs(p.Operator(), p.N, u, 1)
		return res.Complex
	}
	obstructed, err := task.Theorem9Obstructed(build, values, k)
	if err != nil {
		t.Fatal(err)
	}
	if !obstructed {
		t.Fatal("Theorem 9 hypothesis should hold for k=1 <= f=1")
	}

	// Exact search agrees: no consensus decision map on the one-round
	// complex.
	res := coreutil.MustBuildOverInputs(p.Operator(), p.N, values, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)
	if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, 1, 0, 1); err != nil || found {
		t.Fatalf("consensus map found=%v err=%v; Corollary 13 says impossible", found, err)
	}
}

// TestCorollary10AppliesAsync drives Corollary 10 end to end on the
// asynchronous model: its hypothesis on A^1(S^m), 0 <= m <= n, holds
// exactly when k <= f, which is Corollary 13's boundary. For k > f the
// faces with n-k <= m < n-f have empty complexes, so it must fail there.
func TestCorollary10AppliesAsync(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	for n := 1; n <= 3; n++ {
		for f := 1; f <= n; f++ {
			p := Params{N: n, F: f}
			built := map[int]*topology.Complex{}
			conn := func(m int) *topology.Complex {
				if built[m] == nil {
					res, err := build(inputSimplex(labels[:m+1]...), p, 1)
					if err != nil {
						t.Fatal(err)
					}
					built[m] = res.Complex
				}
				return built[m]
			}
			for k := 1; k <= n; k++ {
				if got := task.Corollary10Obstructed(conn, n, k); got != (k <= f) {
					t.Errorf("n=%d f=%d k=%d: obstructed = %v, want %v", n, f, k, got, k <= f)
				}
			}
		}
	}
}

// TestKSetSolvableAboveF verifies the other side of the boundary: for
// k = f+1, a decision map exists on the one-round complex (wait for
// n+1-f inputs and decide the minimum).
func TestKSetSolvableAboveF(t *testing.T) {
	p := Params{N: 2, F: 1}
	k := 2
	values := []string{"0", "1", "2"}
	res := coreutil.MustBuildOverInputs(p.Operator(), p.N, values, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)

	// The explicit min-of-heard map solves it; check it, then confirm the
	// search also finds some map.
	dm := make(task.DecisionMap, len(res.Views))
	for vert, view := range res.Views {
		vals := view.ValuesSeen()
		dm[vert] = vals[0] // ValuesSeen is sorted; minimum value seen
	}
	if err := task.CheckDecision(ann, dm, k); err != nil {
		t.Fatalf("min-of-heard should solve %d-set agreement: %v", k, err)
	}
	if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, k, 5_000_000, 1); err != nil || !found {
		t.Fatalf("search: found=%v err=%v, want a decision map", found, err)
	}
}
