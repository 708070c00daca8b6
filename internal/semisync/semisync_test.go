package semisync

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

func timing(k, f int) Params {
	return Params{C1: 1, C2: 2, D: 2, PerRound: k, Total: f}
}

func TestMicroAndRatio(t *testing.T) {
	p := Params{C1: 2, C2: 6, D: 5, PerRound: 1, Total: 1}
	if got := p.Micro(); got != 3 { // ceil(5/2)
		t.Fatalf("micro = %d, want 3", got)
	}
	num, den := p.Ratio()
	if num != 3 || den != 1 {
		t.Fatalf("ratio = %d/%d, want 3/1", num, den)
	}
}

func TestPatternsOrder(t *testing.T) {
	ps := Patterns([]int{1, 2}, 2)
	if len(ps) != 4 {
		t.Fatalf("patterns = %v", ps)
	}
	// Reverse lexicographic: first pattern fails everything at the last
	// microround, last pattern at microround 1.
	if ps[0][1] != 2 || ps[0][2] != 2 {
		t.Fatalf("first pattern = %v, want all at 2", ps[0])
	}
	if ps[3][1] != 1 || ps[3][2] != 1 {
		t.Fatalf("last pattern = %v, want all at 1", ps[3])
	}
}

// TestLemma19Isomorphism verifies Lemma 19: M^1_{K,F}(S) is isomorphic to
// psi(S\K; [F]) via the view-vector map.
func TestLemma19Isomorphism(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := timing(2, 2)
	micro := p.Micro()
	for _, fail := range [][]int{{}, {0}, {2}, {0, 1}} {
		for _, f := range Patterns(fail, micro) {
			oneRound, err := OneRoundPattern(input, fail, f, p, -1)
			if err != nil {
				t.Fatalf("fail=%v F=%v: %v", fail, f, err)
			}
			ps, err := Lemma19Pseudosphere(input, fail, f, p)
			if err != nil {
				t.Fatalf("fail=%v F=%v: pseudosphere: %v", fail, f, err)
			}
			m, err := Lemma19Map(oneRound, input)
			if err != nil {
				t.Fatalf("fail=%v F=%v: map: %v", fail, f, err)
			}
			if err := topology.VerifyIsomorphism(oneRound.Complex, ps, m); err != nil {
				t.Fatalf("fail=%v F=%v: Lemma 19 isomorphism: %v", fail, f, err)
			}
		}
	}
}

// TestViewSetSizes checks |[F]| = 2^|K| and |[F arrow j]| = 2^(|K|-1).
func TestViewSetSizes(t *testing.T) {
	ids := []int{0, 1, 2}
	fail := []int{0, 1}
	f := FailurePattern{0: 2, 1: 1}
	if got := len(ViewSet(ids, fail, f, 2, -1)); got != 4 {
		t.Fatalf("|[F]| = %d, want 4", got)
	}
	if got := len(ViewSet(ids, fail, f, 2, 0)); got != 2 {
		t.Fatalf("|[F arrow 0]| = %d, want 2", got)
	}
}

// TestLemma20 verifies the intersection lemma concretely: in the paper's
// (K, F) ordering, the intersection of the prefix union with
// psi(S\K_t; [F_t]) equals the union over j in K_t of psi(S\K_t;
// [F_t arrow j]).
func TestLemma20(t *testing.T) {
	cases := []struct {
		labels []string
		p      Params
	}{
		{[]string{"a", "b", "c"}, timing(1, 1)},
		{[]string{"a", "b", "c"}, timing(2, 2)},
		{[]string{"a", "b", "c", "d"}, timing(1, 1)},
	}
	for _, tc := range cases {
		input := inputSimplex(tc.labels...)
		ordered := OrderedPseudospheres(input.IDs(), tc.p)
		prefix := topology.NewComplex()
		for ti, ip := range ordered {
			cur, err := OneRoundPattern(input, ip.Fail, ip.Pattern, tc.p, -1)
			if err != nil {
				t.Fatal(err)
			}
			if ti > 0 && len(ip.Fail) > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := Lemma20RHS(input, ip.Fail, ip.Pattern, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				if !lhs.Equal(rhs.Complex) {
					t.Fatalf("labels=%v K_t=%v F_t=%v: Lemma 20 violated:\nlhs %v\nrhs %v",
						tc.labels, ip.Fail, ip.Pattern, lhs, rhs.Complex)
				}
			}
			prefix.UnionWith(cur.Complex)
		}
	}
}

// TestLemma21Connectivity verifies M^r(S^m) is (m-(n-k)-1)-connected when
// n >= (r+1)k.
func TestLemma21Connectivity(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	cases := []struct {
		n, k, r, m int
	}{
		{2, 1, 1, 2},
		{2, 1, 1, 1},
		{3, 1, 2, 3},
		{3, 1, 1, 3},
	}
	for _, c := range cases {
		if c.n < (c.r+1)*c.k {
			t.Fatalf("case %+v violates n >= (r+1)k", c)
		}
		input := inputSimplex(labels[:c.n+1]...)
		sub := input[:c.m+1]
		p := timing(c.k, c.r*c.k)
		res, err := build(sub, p, c.r)
		if err != nil {
			t.Fatal(err)
		}
		target := c.m - (c.n - c.k) - 1
		if !homology.IsKConnected(res.Complex, target) {
			t.Fatalf("n=%d k=%d r=%d m=%d: M^r not %d-connected (betti %v)",
				c.n, c.k, c.r, c.m, target, homology.ReducedBettiZ2(res.Complex))
		}
	}
}

// TestOneRoundNoConsensus mirrors the consensus consequence in the
// semi-synchronous model: the one-round wait-free complex admits no
// consensus decision map.
func TestOneRoundNoConsensus(t *testing.T) {
	p := timing(1, 1)
	values := []string{"0", "1"}
	res := coreutil.MustBuildOverInputs(p.Operator(), 2, values, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)
	if _, found, err := task.FindDecision(ann, 1, 0); err != nil || found {
		t.Fatalf("consensus map found=%v err=%v; want none", found, err)
	}
}

// TestStretch verifies the Corollary 22 stretching window: a solo process
// stepping every c2 cannot time out before p*c2 = C*d after the last
// delivery.
func TestStretch(t *testing.T) {
	p := Params{C1: 1, C2: 3, D: 2, PerRound: 1, Total: 2}
	s := NewStretch(p)
	if s.Micro != 2 || s.TimeoutAfter != 6 {
		t.Fatalf("stretch = %+v", s)
	}
	if s.DistinguishableAt(5) {
		t.Fatal("indistinguishable strictly before C*d")
	}
	if !s.DistinguishableAt(6) {
		t.Fatal("distinguishable at C*d")
	}
	// C*d = (c2/c1)*d = 6 here (c1 | d), matching TimeoutAfter.
	num, den := p.Ratio()
	if s.TimeoutAfter*den != num*p.D {
		t.Fatalf("timeout %d != C*d = %d/%d * %d", s.TimeoutAfter, num, den, p.D)
	}
}

// TestCorollary22Bound checks the closed-form bound against hand-computed
// values.
func TestCorollary22Bound(t *testing.T) {
	b, err := bounds.SemiSyncTimeLowerBound(2, 1, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Num != 10 || b.Den != 1 {
		t.Fatalf("bound = %v, want 10 (= floor(2/1)*2 + 3*2)", b)
	}
	b, err = bounds.SemiSyncTimeLowerBound(3, 2, 2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// floor(3/2)*5 + (3/2)*5 = 5 + 7.5 = 12.5 = 25/2.
	if b.Num != 25 || b.Den != 2 {
		t.Fatalf("bound = %v, want 25/2", b)
	}
}
