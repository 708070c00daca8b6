// Differential tests: the parallel/cached engine must produce
// bit-identical Betti numbers to the serial reference on every
// tractable instance class the repo works with — pseudospheres, spheres
// and boundaries, the three models' round complexes, derived subcomplexes
// (unions, intersections, skeleta, links), and seeded random complexes.
//
// This file is an external test package because the model packages import
// internal/homology (via internal/core); the engine's exported API is all
// it needs.
package homology_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

func diffInput(m int) topology.Simplex {
	vs := make([]topology.Vertex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return mustSimplex(vs...)
}

// diffInstances enumerates the generated complexes the differential suite
// runs both engines over, at the sizes the existing tests use.
func diffInstances(t *testing.T) map[string]*topology.Complex {
	t.Helper()
	out := make(map[string]*topology.Complex)

	// Solid simplexes and their boundaries (disks and spheres).
	for n := 1; n <= 4; n++ {
		full := diffInput(n)
		out[fmt.Sprintf("solid S^%d", n)] = topology.ComplexOf(full)
		hollow := topology.NewComplex()
		for i := 0; i <= n; i++ {
			hollow.Add(full.Face(i))
		}
		out[fmt.Sprintf("boundary of S^%d", n)] = hollow
	}

	// Pseudospheres psi(S^n; U) — the paper's central construction.
	binary := []string{"0", "1"}
	ternary := []string{"0", "1", "2"}
	for n := 1; n <= 3; n++ {
		out[fmt.Sprintf("psi(S^%d;binary)", n)] = mustUniform(core.ProcessSimplex(n), binary)
	}
	out["psi(S^1;ternary)"] = mustUniform(core.ProcessSimplex(1), ternary)
	out["psi(S^2;ternary)"] = mustUniform(core.ProcessSimplex(2), ternary)

	// Round complexes of the three timing models.
	for _, c := range []struct {
		n, f, r int
	}{{2, 1, 1}, {2, 1, 2}, {2, 2, 1}, {3, 1, 1}} {
		res, err := roundop.Build(context.Background(), asyncmodel.Params{N: c.n, F: c.f}.Operator(), diffInput(c.n), c.r, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("async A^%d n=%d f=%d", c.r, c.n, c.f)] = res.Complex
	}
	for _, c := range []struct {
		n, k, r int
	}{{2, 1, 1}, {2, 1, 2}, {3, 1, 1}, {3, 1, 2}} {
		res, err := roundop.Build(context.Background(), syncmodel.Params{PerRound: c.k, Total: c.r * c.k}.Operator(), diffInput(c.n), c.r, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("sync S^%d n=%d k=%d", c.r, c.n, c.k)] = res.Complex
	}
	{
		p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}
		res, err := roundop.Build(context.Background(), p.Operator(), diffInput(2), 1, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out["semisync M^1 n=2 k=1"] = res.Complex
	}
	{
		res, err := roundop.Build(context.Background(), iis.Operator(), diffInput(2), 1, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out["iis IIS^1 n=2"] = res.Complex
	}

	// Derived subcomplexes of the kind the Mayer–Vietoris experiments
	// query: unions, intersections, skeleta, links.
	sphere := mustUniform(core.ProcessSimplex(2), binary)
	k := sphere.Restriction(func(v topology.Vertex) bool { return v.P != 2 || v.Label == "0" })
	l := sphere.Restriction(func(v topology.Vertex) bool { return v.P != 2 || v.Label == "1" })
	out["MV: K"] = k
	out["MV: L"] = l
	out["MV: K union L"] = k.Union(l)
	out["MV: K intersect L"] = k.Intersection(l)
	out["1-skeleton of psi(S^2;binary)"] = sphere.Skeleton(1)
	out["link in psi(S^2;binary)"] = sphere.Link(topology.Vertex{P: 0, Label: "0"})

	return out
}

func diffEngines() map[string]*homology.Engine {
	return map[string]*homology.Engine{
		"uncached": homology.NewEngine(1, nil),
		"cached":   homology.NewEngine(1, homology.NewCache()),
	}
}

// TestDifferentialEngineVsSerial is the core differential suite.
func TestDifferentialEngineVsSerial(t *testing.T) {
	ctx := context.Background()
	instances := diffInstances(t)
	engines := diffEngines()
	for iname, c := range instances {
		want := homology.BettiZ2(c)
		wantConn := homology.Connectivity(c)
		for ename, e := range engines {
			for pass := 0; pass < 2; pass++ { // second pass hits the cache
				got, err := e.BettiZ2Ctx(ctx, c)
				if err != nil || len(got) != len(want) {
					t.Fatalf("%s / %s: betti %v, %v; want %v", iname, ename, got, err, want)
				}
				for d := range want {
					if got[d] != want[d] {
						t.Fatalf("%s / %s: betti %v, want %v", iname, ename, got, want)
					}
				}
				if gc, err := e.ConnectivityCtx(ctx, c); err != nil || gc != wantConn {
					t.Fatalf("%s / %s: connectivity %d, %v; want %d", iname, ename, gc, err, wantConn)
				}
				for k := -1; k <= 2; k++ {
					if ok, err := e.IsKConnectedCtx(ctx, c, k); err != nil || ok != homology.IsKConnected(c, k) {
						t.Fatalf("%s / %s: IsKConnectedCtx(%d) = %v, %v; disagrees", iname, ename, k, ok, err)
					}
				}
			}
		}
	}
}

// TestDifferentialMorseFieldEngines diffs the coreduction-backed GF(p)
// and rational engines against their unreduced references on every
// instance: the Morse pass claims exactness over arbitrary coefficients,
// so it must be invisible in all three fields, not just GF(2). Both the
// serial wrappers and the context-taking engine methods are checked;
// 1,048,573 is the largest prime under the service's cap.
func TestDifferentialMorseFieldEngines(t *testing.T) {
	ctx := context.Background()
	e := homology.NewEngine(1, nil)
	for iname, c := range diffInstances(t) {
		for _, p := range []int64{2, 3, 7, 1048573} {
			want, err := homology.BettiGFp(c, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := homology.BettiGFpMorse(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(got, want) {
				t.Fatalf("%s: BettiGFpMorse(p=%d) = %v, want %v", iname, p, got, want)
			}
			if got, err := e.BettiGFpCtx(ctx, c, p); err != nil || !sameInts(got, want) {
				t.Fatalf("%s: BettiGFpCtx(p=%d) = %v, %v; want %v", iname, p, got, err, want)
			}
		}
		want := homology.BettiQ(c)
		if got := homology.BettiQMorse(c); !sameInts(got, want) {
			t.Fatalf("%s: BettiQMorse = %v, want %v", iname, got, want)
		}
		if got, err := e.BettiQCtx(ctx, c); err != nil || !sameInts(got, want) {
			t.Fatalf("%s: BettiQCtx = %v, %v; want %v", iname, got, err, want)
		}
	}
}

// TestFieldGoldenBetti pins the Betti vectors of the sweep complexes too
// big for the dense oracles, in all three fields. When pinned, the
// vectors were checked by dense elimination over GF(p) (and over Q for
// the first two) on the restricted matrices. The fields agree, so none
// of these complexes has torsion that GF(2) could hide.
func TestFieldGoldenBetti(t *testing.T) {
	ctx := context.Background()
	semi := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator()
	for _, g := range []struct {
		name string
		op   roundop.Operator
		n    int
		want []int
	}{
		{"sync n=4 k=1 r=2", syncmodel.Params{PerRound: 1, Total: 2}.Operator(), 4, []int{1, 95, 320, 5, 0}},
		{"semisync n=3 k=1 c1=1 c2=2 d=2 r=2", semi, 3, []int{1, 406, 8, 0}},
		{"semisync n=4 k=1 c1=1 c2=2 d=2 r=2", semi, 4, []int{1, 180, 1240, 10, 0}},
	} {
		res, err := roundop.Build(ctx, g.op, diffInput(g.n), 2, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Complex
		e := homology.NewEngine(1, nil)
		z2, err := e.BettiZ2Ctx(ctx, c)
		if err != nil || !sameInts(z2, g.want) {
			t.Fatalf("%s: GF(2) = %v, %v; want %v", g.name, z2, err, g.want)
		}
		gfp, err := e.BettiGFpCtx(ctx, c, 1048573)
		if err != nil || !sameInts(gfp, g.want) {
			t.Fatalf("%s: GF(1048573) = %v, %v; want %v", g.name, gfp, err, g.want)
		}
		q, err := e.BettiQCtx(ctx, c)
		if err != nil || !sameInts(q, g.want) {
			t.Fatalf("%s: Q = %v, %v; want %v", g.name, q, err, g.want)
		}
	}
}

func sameInts(a, b []int) bool {
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

// TestDifferentialRandomComplexes runs a seeded randomized-complex
// generator through both engines. The generator covers disconnected
// complexes, mixed dimensions, and identified vertices (shared labels),
// the shapes that historically break reduction code.
func TestDifferentialRandomComplexes(t *testing.T) {
	rng := rand.New(rand.NewSource(981202)) // PODC '98 vintage
	engines := diffEngines()
	for trial := 0; trial < 60; trial++ {
		nproc := 2 + rng.Intn(4)   // up to 5 process colors
		nlabels := 1 + rng.Intn(3) // up to 3 labels per color
		c := topology.NewComplex()
		for s := 0; s < 1+rng.Intn(8); s++ {
			var vs []topology.Vertex
			for p := 0; p < nproc; p++ {
				if rng.Intn(2) == 0 {
					continue
				}
				vs = append(vs, topology.Vertex{P: p, Label: string(rune('a' + rng.Intn(nlabels)))})
			}
			if len(vs) == 0 {
				continue
			}
			c.Add(mustSimplex(vs...))
		}
		want := homology.BettiZ2(c)
		for ename, e := range engines {
			got, err := e.BettiZ2Ctx(context.Background(), c)
			if err != nil || len(got) != len(want) {
				t.Fatalf("trial %d / %s: betti %v, %v; want %v (facets:\n%s)", trial, ename, got, err, want, c.DescribeFacets())
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("trial %d / %s: betti %v, want %v (facets:\n%s)", trial, ename, got, want, c.DescribeFacets())
				}
			}
		}
	}
}
