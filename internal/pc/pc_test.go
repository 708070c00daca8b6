package pc

import (
	"math"
	"testing"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

func TestAddFacetRecordsViews(t *testing.T) {
	r := NewResult()
	a, b := views.Initial(0, "x"), views.Initial(1, "y")
	s := r.AddFacet([]*views.View{a, b})
	if s.Dim() != 1 {
		t.Fatalf("dim = %d", s.Dim())
	}
	if r.Complex.Size() != 3 {
		t.Fatalf("size = %d, want 3", r.Complex.Size())
	}
	vert := topology.Vertex{P: 0, Label: a.Encode()}
	if r.Views[vert] != a {
		t.Fatal("view not recorded")
	}
}

func TestMergeDeduplicates(t *testing.T) {
	r1, r2 := NewResult(), NewResult()
	a, b := views.Initial(0, "x"), views.Initial(1, "y")
	r1.AddFacet([]*views.View{a, b})
	r2.AddFacet([]*views.View{a, b})
	r2.AddFacet([]*views.View{views.Initial(0, "z")})
	r1.Merge(r2)
	if r1.Complex.Size() != 4 {
		t.Fatalf("size = %d, want 4", r1.Complex.Size())
	}
	if len(r1.Views) != 3 {
		t.Fatalf("views = %d, want 3", len(r1.Views))
	}
}

// TestSatPow: powers are exact below math.MaxInt64 and saturate above
// it, and the empty power is 1 even of 0.
func TestSatPow(t *testing.T) {
	for _, tc := range []struct {
		base int64
		exp  int
		want int64
	}{
		{0, 0, 1}, {0, 3, 0}, {7, 0, 1}, {11, 5, 161051}, {2, 62, 1 << 62},
		{2, 63, math.MaxInt64}, {256, 9, math.MaxInt64},
	} {
		if got := SatPow(tc.base, tc.exp); got != tc.want {
			t.Errorf("SatPow(%d, %d) = %d, want %d", tc.base, tc.exp, got, tc.want)
		}
	}
}

func TestInputViews(t *testing.T) {
	s := mustSimplex(
		topology.Vertex{P: 0, Label: "u"},
		topology.Vertex{P: 2, Label: "w"},
	)
	vs := InputViews(s)
	if len(vs) != 2 || vs[0].P != 0 || vs[0].Input != "u" || vs[1].P != 2 || vs[1].Input != "w" {
		t.Fatalf("views = %v", vs)
	}
}
