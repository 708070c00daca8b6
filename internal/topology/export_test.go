package topology

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestToDOT(t *testing.T) {
	c := ComplexOf(triangle())
	dot := c.ToDOT("tri")
	if !strings.HasPrefix(dot, "graph \"tri\"") {
		t.Fatalf("dot header:\n%s", dot)
	}
	if strings.Count(dot, "--") != 3 {
		t.Fatalf("edge count in dot:\n%s", dot)
	}
	if strings.Count(dot, "fillcolor") != 3 {
		t.Fatalf("vertex count in dot:\n%s", dot)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := ComplexOf(triangle(), mustSimplex(v(3, "d")))
	data, err := c.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var in exportedComplex
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	back := NewComplex()
	for _, row := range in.Facets {
		vs := make([]Vertex, len(row))
		for i, jv := range row {
			vs[i] = Vertex{P: jv.P, Label: jv.Label}
		}
		back.Add(mustSimplex(vs...))
	}
	if !c.Equal(back) || in.Dim != c.Dim() || !slices.Equal(in.FVector, c.FVector()) {
		t.Fatalf("round trip changed the complex:\n%v\nvs\n%v", c, back)
	}
}

func TestDescribeSummary(t *testing.T) {
	c := ComplexOf(triangle())
	s := c.DescribeSummary()
	for _, want := range []string{"dim=2", "simplexes=7", "facets=1", "chi=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
