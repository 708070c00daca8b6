package homology

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pseudosphere/internal/topology"
)

func engineVariants() map[string]*Engine {
	return map[string]*Engine{
		"uncached": NewEngine(1, nil),
		"cached":   NewEngine(1, NewCache()),
	}
}

// TestEngineMatchesSerialOnKnownComplexes diffs every engine configuration
// against the serial reference on the package's standard fixtures, querying
// each complex twice so cached configurations also exercise the hit path.
func TestEngineMatchesSerialOnKnownComplexes(t *testing.T) {
	fixtures := map[string]*topology.Complex{
		"point":      topology.ComplexOf(mustSimplex(v(0, "a"))),
		"two points": twoPointComplex(),
		"circle":     hollowTriangle(),
		"disk":       solidTriangle(),
		"sphere":     hollowTetrahedron(),
		"empty":      topology.NewComplex(),
	}
	ctx := context.Background()
	for name, e := range engineVariants() {
		for fname, c := range fixtures {
			want := BettiZ2(c)
			for pass := 0; pass < 2; pass++ {
				got, err := e.BettiZ2Ctx(ctx, c)
				if err != nil || !equalInts(got, want) {
					t.Fatalf("%s: %s pass %d: betti = %v, %v; want %v", name, fname, pass, got, err, want)
				}
				if gc, err := e.ConnectivityCtx(ctx, c); err != nil || gc != Connectivity(c) {
					t.Fatalf("%s: %s: connectivity = %d, %v; want %d", name, fname, gc, err, Connectivity(c))
				}
				for k := -2; k <= 3; k++ {
					if ok, err := e.IsKConnectedCtx(ctx, c, k); err != nil || ok != IsKConnected(c, k) {
						t.Fatalf("%s: %s: IsKConnectedCtx(%d) = %v, %v; disagrees with serial", name, fname, k, ok, err)
					}
				}
			}
		}
	}
}

// TestEngineReducedBettiDoesNotCorruptCache guards the copy discipline:
// ReducedBettiZ2Ctx decrements b0 in place on the returned slice, which
// must never reach the cached value.
func TestEngineReducedBettiDoesNotCorruptCache(t *testing.T) {
	e := NewEngine(1, NewCache())
	c := hollowTetrahedron()
	first, err := e.ReducedBettiZ2Ctx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	first[0] += 99 // caller-side mutation
	second, err := e.ReducedBettiZ2Ctx(context.Background(), c)
	want := ReducedBettiZ2(c)
	if err != nil || !equalInts(second, want) {
		t.Fatalf("cached value corrupted: second query = %v, want %v", second, want)
	}
	hits, misses, entries := e.CacheStats()
	if hits < 1 || misses < 1 || entries != 1 {
		t.Fatalf("cache stats hits=%d misses=%d entries=%d, want >=1/>=1/1", hits, misses, entries)
	}
}

// TestEngineCacheConcurrentHammer drives one shared cached engine from
// many goroutines over a mix of complexes; run under -race this certifies
// the cache publishes no unsynchronized state.
func TestEngineCacheConcurrentHammer(t *testing.T) {
	e := NewEngine(1, NewCache())
	complexes := []*topology.Complex{
		hollowTriangle(),
		hollowTetrahedron(),
		solidTriangle(),
		twoPointComplex(),
		benchSphereProduct(3),
	}
	wants := make([][]int, len(complexes))
	conns := make([]int, len(complexes))
	for i, c := range complexes {
		wants[i] = BettiZ2(c)
		conns[i] = Connectivity(c)
	}
	const goroutines, iters = 16, 25
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ci := (g + i) % len(complexes)
				if got, err := e.BettiZ2Ctx(ctx, complexes[ci]); err != nil || !equalInts(got, wants[ci]) {
					errs <- fmt.Errorf("goroutine %d: betti = %v, %v; want %v", g, got, err, wants[ci])
					return
				}
				if got, err := e.ConnectivityCtx(ctx, complexes[ci]); err != nil || got != conns[ci] {
					errs <- fmt.Errorf("goroutine %d: connectivity = %d, %v; want %d", g, got, err, conns[ci])
					return
				}
				// Capped queries share the same cache (decorated keys plus
				// the full-vector Peek fast path) — hammer them too.
				cap := i % 2
				top := min(cap, complexes[ci].Dim())
				if got, err := e.BettiZ2UpToCtx(ctx, complexes[ci], cap); err != nil || !equalInts(got, wants[ci][:top+1]) {
					errs <- fmt.Errorf("goroutine %d: capped betti = %v, %v; want %v", g, got, err, wants[ci][:top+1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits, misses, entries := e.CacheStats(); entries != len(complexes) || hits == 0 {
		t.Fatalf("cache stats hits=%d misses=%d entries=%d, want %d entries and some hits",
			hits, misses, entries, len(complexes))
	}
}

// TestRankOfAgreesAcrossFields checks rankOf in every field's store
// against the serial GF(2) reference on the unrestricted boundary
// matrices of benchSphereProduct(7), 343 triangle columns. It is a join
// of discrete sets, so its homology is free and every field sees the
// GF(2) ranks.
func TestRankOfAgreesAcrossFields(t *testing.T) {
	cc := NewChainComplex(benchSphereProduct(7))
	for d := 1; d <= cc.dim; d++ {
		want := cc.boundaryZ2(d).rank()
		if got := rankOf(cc.boundaryZ2(d), nil); got != want {
			t.Fatalf("GF(2) d=%d: rank %d, want %d", d, got, want)
		}
		signs := cc.signedBoundary(d)
		for _, p := range []int64{3, 1048573, fieldQ} {
			if got := rankOf(coefFromDense(p, signs), nil); got != want {
				t.Fatalf("p=%d d=%d: rank %d, want %d", p, d, got, want)
			}
		}
	}
}

// coefFromDense loads a dense integer matrix into the column store of
// GF(p) (entries reduced into [0, p)) or Q (p = fieldQ).
func coefFromDense(p int64, a [][]int64) *coefMatrix {
	cols := 0
	if len(a) > 0 {
		cols = len(a[0])
	}
	m := &coefMatrix{p: p, cols: make([]coefColumn, cols)}
	for j := range m.cols {
		for i := range a {
			v := a[i][j]
			if p > 0 {
				v = (v%p + p) % p
			}
			if v != 0 {
				m.cols[j].rows = append(m.cols[j].rows, i)
				m.cols[j].vals = append(m.cols[j].vals, v)
			}
		}
	}
	return m
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
