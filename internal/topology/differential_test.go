package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// The interned Complex must agree with the retained string-keyed
// ReferenceComplex on every observable: canonical hash, f-vector, size,
// dimension, and membership. These tests drive both builders with the same
// simplex streams and compare.

func randomSimplex(rng *rand.Rand, maxP int, labels []string) Simplex {
	n := 1 + rng.Intn(maxP)
	used := make(map[int]bool)
	verts := make([]Vertex, 0, n)
	for len(verts) < n {
		p := rng.Intn(maxP)
		if used[p] {
			continue
		}
		used[p] = true
		verts = append(verts, Vertex{P: p, Label: labels[rng.Intn(len(labels))]})
	}
	return mustSimplex(verts...)
}

func compareRepresentations(t *testing.T, ctx string, c *Complex, ref *ReferenceComplex) {
	t.Helper()
	if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
		t.Fatalf("%s: CanonicalHash %s != reference %s", ctx, got, want)
	}
	if got, want := c.Size(), ref.Size(); got != want {
		t.Fatalf("%s: Size %d != reference %d", ctx, got, want)
	}
	if got, want := c.Dim(), ref.Dim(); got != want {
		t.Fatalf("%s: Dim %d != reference %d", ctx, got, want)
	}
	gotFV, wantFV := c.FVector(), ref.FVector()
	if len(gotFV) != len(wantFV) {
		t.Fatalf("%s: f-vector %v != reference %v", ctx, gotFV, wantFV)
	}
	for d := range gotFV {
		if gotFV[d] != wantFV[d] {
			t.Fatalf("%s: f-vector %v != reference %v", ctx, gotFV, wantFV)
		}
	}
	for _, s := range ref.AllSimplices() {
		if !c.Has(s) {
			t.Fatalf("%s: interned complex missing %v", ctx, s)
		}
	}
}

func TestDifferentialSeededRandom(t *testing.T) {
	labels := []string{"a", "b", "c", "x", "y"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewComplex()
		ref := NewReferenceComplex()
		for i := 0; i < 60; i++ {
			s := randomSimplex(rng, 6, labels)
			c.Add(s)
			ref.Add(s)
		}
		compareRepresentations(t, fmt.Sprintf("seed %d", seed), c, ref)
		// Membership probes for absent simplexes must agree too.
		for i := 0; i < 40; i++ {
			s := randomSimplex(rng, 6, labels)
			if c.Has(s) != ref.Has(s) {
				t.Fatalf("seed %d: Has(%v) = %v, reference %v", seed, s, c.Has(s), ref.Has(s))
			}
		}
	}
}

func TestDifferentialUnionIntersection(t *testing.T) {
	labels := []string{"0", "1"}
	rng := rand.New(rand.NewSource(42))
	a, b := NewComplex(), NewComplex()
	refA, refB := NewReferenceComplex(), NewReferenceComplex()
	for i := 0; i < 30; i++ {
		s := randomSimplex(rng, 5, labels)
		if i%2 == 0 {
			a.Add(s)
			refA.Add(s)
		} else {
			b.Add(s)
			refB.Add(s)
		}
	}
	u := a.Union(b)
	refU := NewReferenceComplex()
	for _, s := range refA.AllSimplices() {
		refU.Add(s)
	}
	for _, s := range refB.AllSimplices() {
		refU.Add(s)
	}
	compareRepresentations(t, "union", u, refU)

	inter := u.Intersection(a)
	if inter.CanonicalHash() != a.CanonicalHash() {
		t.Fatal("(A union B) intersect A != A")
	}
}

func TestReferenceToComplexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := NewReferenceComplex()
	for i := 0; i < 25; i++ {
		ref.Add(randomSimplex(rng, 5, []string{"p", "q", "r"}))
	}
	c := ref.ToComplex()
	compareRepresentations(t, "round-trip", c, ref)
}

// FuzzComplexAdd drives the intern/hash path with arbitrary vertex streams
// and cross-checks every observable against the reference builder. The
// encoding of the fuzz input: each byte pair is one vertex (process id,
// label selector); a zero process byte terminates the current simplex.
func FuzzComplexAdd(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 2, 0, 0, 2, 1, 4, 3})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 0, 1, 3})
	f.Add([]byte{})
	// A larger seed: 60 simplexes of up to 8 vertices on distinct
	// processes, enough entries to double the simplex index several times.
	rng := rand.New(rand.NewSource(3))
	var big []byte
	for i := 0; i < 60; i++ {
		for _, p := range rng.Perm(28)[:1+rng.Intn(8)] {
			big = append(big, byte(1+p), byte(rng.Intn(4)))
		}
		big = append(big, 0, 0)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		labels := []string{"a", "b", "c", "d"}
		c := NewComplex()
		ref := NewReferenceComplex()
		var verts []Vertex
		flush := func() {
			if len(verts) == 0 {
				return
			}
			s, err := NewSimplex(verts...)
			verts = verts[:0]
			if err != nil {
				return // non-chromatic draw; both builders reject via NewSimplex
			}
			c.Add(s)
			ref.Add(s)
		}
		for i := 0; i+1 < len(data); i += 2 {
			p := int(data[i])
			if p == 0 {
				flush()
				continue
			}
			verts = append(verts, Vertex{P: p % 29, Label: labels[int(data[i+1])%len(labels)]})
		}
		flush()
		if c.CanonicalHash() != ref.CanonicalHash() {
			t.Fatalf("hash mismatch: interned %s reference %s", c.CanonicalHash(), ref.CanonicalHash())
		}
		if c.Size() != ref.Size() || c.Dim() != ref.Dim() {
			t.Fatalf("size/dim mismatch: (%d,%d) vs (%d,%d)", c.Size(), c.Dim(), ref.Size(), ref.Dim())
		}
		for _, s := range ref.AllSimplices() {
			if !c.Has(s) {
				t.Fatalf("missing %v", s)
			}
		}
	})
}
