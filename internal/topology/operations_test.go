package topology

import "testing"

func circle3() *Complex {
	return ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b")),
		mustSimplex(v(1, "b"), v(2, "c")),
		mustSimplex(v(0, "a"), v(2, "c")),
	)
}

func TestConeAddsApexToEverySimplex(t *testing.T) {
	c := circle3()
	cone, err := Cone(c, v(3, "apex"))
	if err != nil {
		t.Fatal(err)
	}
	// Circle: 3 vertices + 3 edges; cone adds apex, 3 edges, 3 triangles.
	if cone.Size() != 6+1+3+3 {
		t.Fatalf("cone size = %d, want 13", cone.Size())
	}
	if cone.Dim() != 2 {
		t.Fatalf("cone dim = %d", cone.Dim())
	}
	if _, err := Cone(c, v(0, "apex")); err == nil {
		t.Fatal("apex id collision accepted")
	}
}

func TestSuspensionStructure(t *testing.T) {
	// Suspension of two points (S^0) is a circle (S^1).
	two := ComplexOf(mustSimplex(v(0, "a")), mustSimplex(v(0, "b")))
	sus, err := Suspension(two, v(1, "n"), v(2, "s"))
	if err != nil {
		t.Fatal(err)
	}
	fv := sus.FVector()
	if fv[0] != 4 || fv[1] != 4 {
		t.Fatalf("suspension f-vector = %v, want a 4-cycle", fv)
	}
	if _, err := Suspension(two, v(1, "n"), v(1, "s")); err == nil {
		t.Fatal("equal apex ids accepted")
	}
}

func TestConnectedComponents(t *testing.T) {
	c := ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b")),
		mustSimplex(v(0, "x"), v(1, "y"), v(2, "z")),
		mustSimplex(v(2, "solo")),
	)
	comps := c.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	total := 0
	for _, comp := range comps {
		total += comp.Size()
	}
	if total != c.Size() {
		t.Fatalf("components cover %d simplexes, complex has %d", total, c.Size())
	}
	if len(circle3().ConnectedComponents()) != 1 {
		t.Fatal("circle should be one component")
	}
	if got := NewComplex().ConnectedComponents(); got != nil {
		t.Fatalf("empty complex components = %v", got)
	}
}

// TestConeSizeQuick property-checks |Cone(c)| = 2|c| + 1.
func TestConeSizeQuick(t *testing.T) {
	for labels := 1; labels <= 3; labels++ {
		c := NewComplex()
		for a := 0; a < labels; a++ {
			for b := 0; b < labels; b++ {
				c.Add(mustSimplex(
					Vertex{P: 0, Label: string(rune('a' + a))},
					Vertex{P: 1, Label: string(rune('a' + b))},
				))
			}
		}
		cone, err := Cone(c, Vertex{P: 5, Label: "apex"})
		if err != nil {
			t.Fatal(err)
		}
		if cone.Size() != 2*c.Size()+1 {
			t.Fatalf("labels=%d: cone size %d, want %d", labels, cone.Size(), 2*c.Size()+1)
		}
	}
}
