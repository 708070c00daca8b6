package topology

import (
	"testing"
	"testing/quick"
)

func triangle() Simplex {
	return mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
}

func TestComplexClosure(t *testing.T) {
	c := ComplexOf(triangle())
	if got := c.Size(); got != 7 {
		t.Fatalf("size = %d, want 7 (3 vertices + 3 edges + 1 triangle)", got)
	}
	fv := c.FVector()
	if fv[0] != 3 || fv[1] != 3 || fv[2] != 1 {
		t.Fatalf("f-vector = %v", fv)
	}
	if c.EulerCharacteristic() != 1 {
		t.Fatalf("chi = %d, want 1", c.EulerCharacteristic())
	}
	if !c.Has(triangle().Face(0)) {
		t.Fatal("closure is missing a face")
	}
}

func TestComplexFacets(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Complex
		want int
	}{
		{"triangle plus dangling edge", ComplexOf(triangle(), mustSimplex(v(2, "c"), v(3, "d"))), 2},
		{"triangle", ComplexOf(triangle()), 1},
		{"empty", NewComplex(), 0},
	} {
		facets := tc.c.Facets()
		if len(facets) != tc.want {
			t.Fatalf("%s: facets = %v, want %d", tc.name, facets, tc.want)
		}
		if got := tc.c.FacetCount(); got != tc.want {
			t.Fatalf("%s: FacetCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestComplexUnionIntersection(t *testing.T) {
	a := ComplexOf(mustSimplex(v(0, "a"), v(1, "b")))
	b := ComplexOf(mustSimplex(v(1, "b"), v(2, "c")))
	u := a.Union(b)
	if u.Size() != 5 {
		t.Fatalf("union size = %d, want 5", u.Size())
	}
	i := a.Intersection(b)
	if i.Size() != 1 || !i.HasVertex(v(1, "b")) {
		t.Fatalf("intersection = %v", i)
	}
	if !a.IsSubcomplexOf(u) || !i.IsSubcomplexOf(a) {
		t.Fatal("subcomplex relations violated")
	}
}

func TestComplexSkeletonAndRestriction(t *testing.T) {
	c := ComplexOf(triangle())
	sk := c.Skeleton(1)
	if sk.Dim() != 1 || sk.Size() != 6 {
		t.Fatalf("skeleton = %v", sk)
	}
	r := c.Restriction(func(vert Vertex) bool { return vert.P != 2 })
	if r.Size() != 3 { // two vertices and one edge
		t.Fatalf("restriction size = %d, want 3", r.Size())
	}
}

func TestStarAndLink(t *testing.T) {
	c := ComplexOf(triangle())
	star := c.Star(v(0, "a"))
	if star.Dim() != 2 {
		t.Fatalf("star dim = %d", star.Dim())
	}
	link := c.Link(v(0, "a"))
	// Link of a vertex of a solid triangle is the opposite edge.
	if link.Dim() != 1 || link.Size() != 3 {
		t.Fatalf("link = %v", link)
	}
}

func TestComplexJoin(t *testing.T) {
	a := ComplexOf(mustSimplex(v(0, "a")), mustSimplex(v(0, "b")))
	b := ComplexOf(mustSimplex(v(1, "x")), mustSimplex(v(1, "y")))
	j, err := a.Join(b)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	// Join of two 2-point spaces is a 4-cycle: 4 vertices + 4 edges.
	if j.Size() != 8 || j.Dim() != 1 {
		t.Fatalf("join = %v", j)
	}
	if _, err := a.Join(a); err == nil {
		t.Fatal("expected join error for shared ids")
	}
}

func TestVerifyIsomorphismIdentity(t *testing.T) {
	c := ComplexOf(triangle())
	m := make(VertexMap)
	for _, vert := range c.Vertices() {
		m[vert] = vert
	}
	if err := VerifyIsomorphism(c, c, m); err != nil {
		t.Fatalf("identity is an isomorphism: %v", err)
	}
}

func TestVerifyIsomorphismRelabel(t *testing.T) {
	a := ComplexOf(mustSimplex(v(0, "x"), v(1, "y")))
	b := ComplexOf(mustSimplex(v(0, "u"), v(1, "w")))
	m := VertexMap{v(0, "x"): v(0, "u"), v(1, "y"): v(1, "w")}
	if err := VerifyIsomorphism(a, b, m); err != nil {
		t.Fatalf("relabeling is an isomorphism: %v", err)
	}
	bad := VertexMap{v(0, "x"): v(0, "u"), v(1, "y"): v(0, "u")}
	if err := VerifyIsomorphism(a, b, bad); err == nil {
		t.Fatal("non-injective map accepted")
	}
}

func TestChromaticIsomorphic(t *testing.T) {
	// Two 4-cycles with different labels are chromatically isomorphic.
	a := ComplexOf(
		mustSimplex(v(0, "0"), v(1, "0")),
		mustSimplex(v(1, "0"), v(0, "1")),
		mustSimplex(v(0, "1"), v(1, "1")),
		mustSimplex(v(1, "1"), v(0, "0")),
	)
	b := ComplexOf(
		mustSimplex(v(0, "p"), v(1, "q")),
		mustSimplex(v(1, "q"), v(0, "r")),
		mustSimplex(v(0, "r"), v(1, "s")),
		mustSimplex(v(1, "s"), v(0, "p")),
	)
	if !ChromaticIsomorphic(a, b) {
		t.Fatal("isomorphic complexes not recognized")
	}
	// A path of three edges is not isomorphic to the 4-cycle.
	c := ComplexOf(
		mustSimplex(v(0, "0"), v(1, "0")),
		mustSimplex(v(1, "0"), v(0, "1")),
		mustSimplex(v(0, "1"), v(1, "1")),
	)
	if ChromaticIsomorphic(a, c) {
		t.Fatal("non-isomorphic complexes reported isomorphic")
	}
}

func TestBarycentricSubdivisionTriangle(t *testing.T) {
	c := ComplexOf(triangle())
	sd, carrier := BarycentricSubdivision(c)
	fv := sd.FVector()
	// Subdivided solid triangle: 7 vertices, 12 edges, 6 triangles.
	if fv[0] != 7 || fv[1] != 12 || fv[2] != 6 {
		t.Fatalf("subdivision f-vector = %v", fv)
	}
	if sd.EulerCharacteristic() != 1 {
		t.Fatalf("chi = %d, want 1", sd.EulerCharacteristic())
	}
	for _, vert := range sd.Vertices() {
		car, ok := carrier[vert]
		if !ok {
			t.Fatalf("vertex %v has no carrier", vert)
		}
		if car.Dim() != vert.P {
			t.Fatalf("carrier dim %d != color %d", car.Dim(), vert.P)
		}
	}
}

// TestUnionCommutesQuick checks on random edge sets that union is
// commutative and intersection is contained in both operands.
func TestUnionCommutesQuick(t *testing.T) {
	build := func(edges [4][2]uint8) *Complex {
		c := NewComplex()
		for _, e := range edges {
			a := Vertex{P: 0, Label: string(rune('a' + e[0]%3))}
			b := Vertex{P: 1, Label: string(rune('a' + e[1]%3))}
			c.Add(mustSimplex(a, b))
		}
		return c
	}
	prop := func(e1, e2 [4][2]uint8) bool {
		a, b := build(e1), build(e2)
		u1, u2 := a.Union(b), b.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		i := a.Intersection(b)
		return i.IsSubcomplexOf(a) && i.IsSubcomplexOf(b) && i.IsSubcomplexOf(u1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
