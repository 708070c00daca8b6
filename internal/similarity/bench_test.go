package similarity

import (
	"testing"

	"pseudosphere/internal/topology"
)

func BenchmarkNewGraph(b *testing.B) {
	res := binaryAsync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGraph(res.Complex, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChain(b *testing.B) {
	res := binaryAsync()
	g, err := NewGraph(res.Complex, 1)
	if err != nil {
		b.Fatal(err)
	}
	first := g.Facets[0].Key()
	last := g.Facets[len(g.Facets)-1].Key()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Chain(
			func(s topology.Simplex) bool { return s.Key() == first },
			func(s topology.Simplex) bool { return s.Key() == last },
		)
	}
}
