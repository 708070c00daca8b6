package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func v(p int, label string) Vertex { return Vertex{P: p, Label: label} }

func TestNewSimplexSortsByProcess(t *testing.T) {
	s, err := NewSimplex(v(2, "c"), v(0, "a"), v(1, "b"))
	if err != nil {
		t.Fatalf("NewSimplex: %v", err)
	}
	if got := s.IDs(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ids not sorted: %v", got)
	}
	if s.Dim() != 2 {
		t.Fatalf("dim = %d, want 2", s.Dim())
	}
}

func TestNewSimplexRejectsNonChromatic(t *testing.T) {
	if _, err := NewSimplex(v(0, "a"), v(0, "b")); err == nil {
		t.Fatal("expected error for two labels on one process")
	}
	if _, err := NewSimplex(Vertex{P: -1, Label: "x"}); err == nil {
		t.Fatal("expected error for negative process id")
	}
}

func TestNewSimplexCollapsesDuplicates(t *testing.T) {
	s, err := NewSimplex(v(0, "a"), v(0, "a"), v(1, "b"))
	if err != nil {
		t.Fatalf("NewSimplex: %v", err)
	}
	if s.Dim() != 1 {
		t.Fatalf("dim = %d, want 1", s.Dim())
	}
}

func TestSimplexFaces(t *testing.T) {
	s := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	f := s.Face(1)
	if f.Dim() != 1 || f.HasID(1) {
		t.Fatalf("Face(1) = %v", f)
	}
	if !f.IsFaceOf(s) {
		t.Fatal("face not recognized as face")
	}
	if s.IsFaceOf(f) {
		t.Fatal("simplex is not a face of its own face")
	}
	if got := len(s.ProperFaces()); got != 6 {
		t.Fatalf("proper faces = %d, want 6", got)
	}
}

func TestSimplexWithout(t *testing.T) {
	s := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	if got := s.WithoutID(1); got.Dim() != 1 || got.HasID(1) {
		t.Fatalf("WithoutID = %v", got)
	}
	if got := s.WithoutIDs(map[int]bool{0: true, 2: true}); got.Dim() != 0 || !got.HasID(1) {
		t.Fatalf("WithoutIDs = %v", got)
	}
}

func TestSimplexIntersect(t *testing.T) {
	s := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	u := mustSimplex(v(0, "a"), v(1, "x"), v(3, "d"))
	got := s.Intersect(u)
	if got.Dim() != 0 || !slices.Contains(got, v(0, "a")) {
		t.Fatalf("Intersect = %v", got)
	}
}

func TestSimplexJoin(t *testing.T) {
	s := mustSimplex(v(0, "a"))
	u := mustSimplex(v(1, "b"))
	j, err := s.Join(u)
	if err != nil || j.Dim() != 1 {
		t.Fatalf("Join = %v, %v", j, err)
	}
	if _, err := s.Join(mustSimplex(v(0, "z"))); err == nil {
		t.Fatal("expected join conflict error")
	}
}

func TestSimplexKeyInjective(t *testing.T) {
	a := mustSimplex(v(0, "a"), v(1, "b"))
	b := mustSimplex(v(0, "a"), v(1, "c"))
	if a.Key() == b.Key() {
		t.Fatal("distinct simplexes share a key")
	}
	if !slices.Equal(a, mustSimplex(v(1, "b"), v(0, "a"))) {
		t.Fatal("order-insensitive equality failed")
	}
}

// TestFacePropertyQuick checks, on random chromatic simplexes, that every
// face produced by dropping one vertex is a face, intersects correctly, and
// has a consistent key.
func TestFacePropertyQuick(t *testing.T) {
	prop := func(labels [5]uint8, omit uint8) bool {
		vs := make([]Vertex, 0, 5)
		for i, l := range labels {
			vs = append(vs, Vertex{P: i, Label: string(rune('a' + l%4))})
		}
		s := mustSimplex(vs...)
		i := int(omit) % len(s)
		f := s.Face(i)
		if !f.IsFaceOf(s) {
			return false
		}
		if !slices.Equal(f.Intersect(s), f) {
			return false
		}
		return f.Key() != s.Key()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
