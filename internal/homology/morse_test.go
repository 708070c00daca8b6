package homology

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/topology"
)

// twoComponentComplex is an interval plus an isolated vertex.
func twoComponentComplex() *topology.Complex {
	c := topology.NewComplex()
	c.Add(mustSimplex(v(0, "a"), v(1, "b")))
	c.Add(mustSimplex(v(2, "c")))
	return c
}

// TestCoreduceKnownComplexes pins the collapse itself (not just the Betti
// output) on complexes whose critical structure is known by hand: spheres
// keep exactly one top cell, collapsible complexes vanish entirely, and
// every component costs one seed vertex.
func TestCoreduceKnownComplexes(t *testing.T) {
	cases := []struct {
		name       string
		c          *topology.Complex
		components int
		critical   []int // per dimension
	}{
		// Circle: one seed vertex, then pairings eat everything except a
		// single critical 1-cell carrying H_1.
		{"circle", hollowTriangle(), 1, []int{0, 1}},
		// 2-sphere: one critical 2-cell, nothing below.
		{"sphere", hollowTetrahedron(), 1, []int{0, 0, 1}},
		// Solid triangle is a cone: fully collapsible.
		{"solid", solidTriangle(), 1, []int{0, 0, 0}},
		// Two components: two seeds, rest collapses.
		{"two-components", twoComponentComplex(), 2, []int{0, 0}},
		{"point", topology.ComplexOf(mustSimplex(v(0, "a"))), 1, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr, ok := coreduce(tc.c, nil)
			if !ok {
				t.Fatal("coreduce aborted without cancellation")
			}
			if cr.components != tc.components {
				t.Fatalf("components = %d, want %d", cr.components, tc.components)
			}
			fv := tc.c.FVector()
			for d := 0; d <= cr.dim; d++ {
				if got := cr.criticalCount(d); got != tc.critical[d] {
					t.Errorf("critical cells in dim %d = %d, want %d", d, got, tc.critical[d])
				}
				if cr.removed[d]+cr.criticalCount(d) != fv[d] {
					t.Errorf("dim %d: removed %d + critical %d != f_%d = %d",
						d, cr.removed[d], cr.criticalCount(d), d, fv[d])
				}
			}
		})
	}
}

// TestCoreduceEmpty: the pass must tolerate the empty complex.
func TestCoreduceEmpty(t *testing.T) {
	cr, ok := coreduce(topology.NewComplex(), nil)
	if !ok || cr.components != 0 || cr.dim != -1 {
		t.Fatalf("empty coreduce = %+v, ok=%v", cr, ok)
	}
	if got, err := NewEngine(1, nil).BettiZ2Ctx(context.Background(), topology.NewComplex()); err != nil || got != nil {
		t.Fatalf("morse engine on empty complex = %v, %v; want nil", got, err)
	}
}

// TestMorseRestrictedFieldEngines diffs the Morse GF(p) and Q engines
// against their unreduced references on the package fixtures.
func TestMorseRestrictedFieldEngines(t *testing.T) {
	complexes := map[string]*topology.Complex{
		"circle":     hollowTriangle(),
		"sphere":     hollowTetrahedron(),
		"solid":      solidTriangle(),
		"two-comp":   twoComponentComplex(),
		"sphereprod": benchSphereProduct(3),
	}
	for name, c := range complexes {
		for _, p := range []int64{2, 3, 7} {
			want, err := BettiGFp(c, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BettiGFpMorse(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Errorf("%s: BettiGFpMorse(p=%d) = %v, want %v", name, p, got, want)
			}
		}
		if got, want := BettiQMorse(c), BettiQ(c); !equalInts(got, want) {
			t.Errorf("%s: BettiQMorse = %v, want %v", name, got, want)
		}
	}
	for _, p := range []int64{1, 1 << 31, 4294967311} {
		if _, err := BettiGFp(hollowTriangle(), p); err == nil {
			t.Errorf("BettiGFp(p=%d) accepted a modulus outside [2, 2^31)", p)
		}
		if _, err := BettiGFpMorse(hollowTriangle(), p); err == nil {
			t.Errorf("BettiGFpMorse(p=%d) accepted a modulus outside [2, 2^31)", p)
		}
		if _, err := NewEngine(1, nil).BettiGFpCtx(context.Background(), hollowTriangle(), p); err == nil {
			t.Errorf("BettiGFpCtx(p=%d) accepted a modulus outside [2, 2^31)", p)
		}
	}
}

// TestFieldEnginesHonorCancellation: a GF(p) or Q query on an already
// cancelled context returns context.Canceled before reducing a column,
// so a timed-out request frees its compute slot at once.
func TestFieldEnginesHonorCancellation(t *testing.T) {
	c := benchSphereProduct(4)
	e := NewEngine(1, nil)
	tr := obs.NewTracker()
	ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tr))
	cancel()
	if got, err := e.BettiGFpCtx(ctx, c, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GF(3) = %v, %v; want context.Canceled", got, err)
	}
	if got, err := e.BettiQCtx(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Q = %v, %v; want context.Canceled", got, err)
	}
	if cols := tr.Counters()["columns"]; cols != 0 {
		t.Fatalf("cancelled queries reduced %d columns, want 0", cols)
	}
}

// TestQStoreOverflowFallback gives the Q store columns whose fraction-free
// combination overflows int64. Each column's low entry is 2^40+1 or
// 2^40−1, so cancelling them multiplies entries of magnitude 2^40 by
// 2^40. The rank must still equal rationalRank of the same matrix.
func TestQStoreOverflowFallback(t *testing.T) {
	const big = int64(1) << 40
	a := [][]int64{
		{big, 3, 1, 0},
		{1, big, 0, 1},
		{big + 1, big - 1, 1, 1},
	}
	want := rationalRank(a, nil)
	m := coefFromDense(fieldQ, a)
	if got := m.rank(nil, func() [][]int64 { return a }); got != want {
		t.Fatalf("rank = %d, want %d", got, want)
	}
	if !m.overflow {
		t.Fatal("the reduction did not overflow; the fixture no longer tests the fallback")
	}
}

// TestBettiZ2UpTo pins the capped reference against prefixes of the full
// vector, for caps below, at, and above the complex dimension.
func TestBettiZ2UpTo(t *testing.T) {
	for _, c := range []*topology.Complex{
		hollowTriangle(), hollowTetrahedron(), solidTriangle(), benchSphereProduct(3),
	} {
		full := BettiZ2(c)
		for cap := 0; cap <= c.Dim()+2; cap++ {
			got := BettiZ2UpTo(c, cap)
			top := min(cap, c.Dim())
			if !equalInts(got, full[:top+1]) {
				t.Fatalf("BettiZ2UpTo(%d) = %v, want prefix %v of %v", cap, got, full[:top+1], full)
			}
		}
		if got := BettiZ2UpTo(c, -1); got != nil {
			t.Fatalf("BettiZ2UpTo(-1) = %v, want nil", got)
		}
	}
}

// TestEngineCappedSkipsTopDimensions asserts the capped engine path
// actually avoids work: an upto=0 query on a 2-dimensional complex must
// not touch ∂_2's critical columns. It must agree with the full vector's
// prefix, and cached capped vectors must not poison the full-vector key
// (or vice versa).
func TestEngineCappedSkipsTopDimensions(t *testing.T) {
	c := benchSphereProduct(4) // 2-dimensional, 64 triangle columns
	full := BettiZ2(c)

	tr := obs.NewTracker()
	ctx := obs.WithTracker(context.Background(), tr)
	got, err := NewEngine(1, nil).BettiZ2UpToCtx(ctx, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, full[:1]) {
		t.Fatalf("capped betti = %v, want %v", got, full[:1])
	}
	// The product-of-spheres complex coreduces to critical cells in
	// dimension 2 only, so a dim-0 cap reduces nothing at all.
	if cols := tr.Counters()["columns"]; cols != 0 {
		t.Fatalf("capped run reduced %d columns, want 0", cols)
	}

	// Cache isolation: a capped result must not serve the full query, and
	// a cached full vector answers capped queries by prefix (Peek path).
	e := NewEngine(1, NewCache())
	if _, err := e.BettiZ2UpToCtx(context.Background(), c, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := e.BettiZ2Ctx(context.Background(), c); err != nil || !equalInts(got, full) {
		t.Fatalf("full vector after capped query = %v, %v; want %v", got, err, full)
	}
	hitsBefore, _, _ := e.CacheStats()
	got, err = e.BettiZ2UpToCtx(context.Background(), c, 1)
	if err != nil || !equalInts(got, full[:2]) {
		t.Fatalf("capped-after-full = %v, %v; want %v", got, err, full[:2])
	}
	if hitsAfter, _, _ := e.CacheStats(); hitsAfter != hitsBefore+1 {
		t.Fatalf("capped query after full compute was not a cache hit (%d -> %d)", hitsBefore, hitsAfter)
	}
}

// TestConnectivityUpToCtx pins the capped connectivity verdict the
// upto= endpoint serves, ConnectivityFromBetti over BettiZ2UpToCtx,
// against min(Connectivity, cap) on the fixtures.
func TestConnectivityUpToCtx(t *testing.T) {
	e := NewEngine(1, nil)
	for _, c := range []*topology.Complex{
		hollowTriangle(), hollowTetrahedron(), solidTriangle(), twoComponentComplex(), benchSphereProduct(3),
		topology.NewComplex(),
	} {
		want := Connectivity(c)
		for cap := 0; cap <= c.Dim()+1; cap++ {
			betti, err := e.BettiZ2UpToCtx(context.Background(), c, cap)
			if err != nil {
				t.Fatal(err)
			}
			if got := ConnectivityFromBetti(betti); got != min(want, cap) {
				t.Fatalf("capped connectivity of %v at %d = %d, want %d", c, cap, got, min(want, cap))
			}
		}
	}
}

// TestBettiResumeCrossMorse checks the checkpoint seam across the
// collapse: the ranks a run emits are ranks of the *original* boundary
// matrices, equal to the serial oracle's, not of the restricted ones it
// reduced. Ranks computed by the oracle therefore restore into the
// engine verbatim, with zero columns reduced.
func TestBettiResumeCrossMorse(t *testing.T) {
	for _, c := range []*topology.Complex{hollowTetrahedron(), benchSphereProduct(3), twoComponentComplex()} {
		e := NewEngine(1, nil)
		want := BettiZ2(c)
		cc := NewChainComplex(c)
		oracle := map[int]int{}
		for d := 1; d <= cc.dim; d++ {
			oracle[d] = cc.boundaryZ2(d).rank()
		}

		var mu sync.Mutex
		emitted := map[int]int{}
		got, err := e.BettiZ2CtxResume(context.Background(), c, nil, func(d, rank int) {
			mu.Lock()
			emitted[d] = rank
			mu.Unlock()
		})
		if err != nil || !equalInts(got, want) {
			t.Fatalf("emitting run = %v, %v; want %v", got, err, want)
		}
		if len(emitted) != len(oracle) {
			t.Fatalf("emitted %d ranks %v, want %d", len(emitted), emitted, len(oracle))
		}
		for d, r := range oracle {
			if emitted[d] != r {
				t.Fatalf("dim %d: engine emitted rank %d, oracle rank %d", d, emitted[d], r)
			}
		}

		tr := obs.NewTracker()
		ctx := obs.WithTracker(context.Background(), tr)
		got, err = e.BettiZ2CtxResume(ctx, c, oracle, nil)
		if err != nil || !equalInts(got, want) {
			t.Fatalf("restored run = %v, %v; want %v", got, err, want)
		}
		cs := tr.Counters()
		if cs["columns"] != 0 {
			t.Fatalf("restored run reduced %d columns, want 0 (counters %v)", cs["columns"], cs)
		}
		if cs["ranks_restored"] != uint64(c.Dim()) {
			t.Fatalf("ranks_restored = %d, want %d", cs["ranks_restored"], c.Dim())
		}
	}
}

// FuzzCoreduce feeds small random facet sets to the Morse engine and
// cross-checks GF(2) (engine and capped), GF(p), and Q against the
// unreduced references — any coreduction unsoundness (a pairing that
// changes homology, a sign lost in the restricted boundary) surfaces as
// a Betti mismatch.
func FuzzCoreduce(f *testing.F) {
	f.Add([]byte{0x13, 0x57, 0x9b})
	f.Add([]byte{0xff, 0x00, 0xa5, 0x21, 0x42})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := topology.NewComplex()
		labels := []string{"x", "y", "z"}
		// Each pair of bytes encodes one facet: a vertex-presence mask
		// over processes 0..4 and per-vertex label picks.
		for i := 0; i+1 < len(data) && i < 16; i += 2 {
			mask, pick := data[i], data[i+1]
			var vs []topology.Vertex
			for p := 0; p < 5; p++ {
				if mask>>p&1 == 1 {
					vs = append(vs, topology.Vertex{P: p, Label: labels[int(pick>>p)%len(labels)]})
				}
			}
			if len(vs) == 0 {
				continue
			}
			s, err := topology.NewSimplex(vs...)
			if err != nil {
				t.Fatal(err)
			}
			c.Add(s)
		}
		if c.IsEmpty() {
			return
		}
		want := BettiZ2(c)
		e := NewEngine(1, nil)
		if got, err := e.BettiZ2Ctx(context.Background(), c); err != nil || !equalInts(got, want) {
			t.Fatalf("morse betti = %v, %v; want %v (facets %s)", got, err, want, c.DescribeFacets())
		}
		for cap := 0; cap <= c.Dim(); cap++ {
			got, err := e.BettiZ2UpToCtx(context.Background(), c, cap)
			if err != nil || !equalInts(got, want[:cap+1]) {
				t.Fatalf("capped(%d) = %v, %v; want %v", cap, got, err, want[:cap+1])
			}
		}
		wantQ := BettiQ(c)
		if got := BettiQMorse(c); !equalInts(got, wantQ) {
			t.Fatalf("morse Q betti = %v, want %v (facets %s)", got, wantQ, c.DescribeFacets())
		}
		wantP, err := BettiGFp(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := BettiGFpMorse(c, 3); err != nil || !equalInts(got, wantP) {
			t.Fatalf("morse GF(3) betti = %v, %v; want %v", got, err, wantP)
		}
	})
}
