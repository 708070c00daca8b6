package task

import (
	"fmt"
	"testing"

	"pseudosphere/internal/topology"
)

func benchAnnotated(chains int) *Annotated {
	c := topology.NewComplex()
	allowed := make(map[topology.Vertex][]string)
	for i := 0; i < chains; i++ {
		a := v(0, fmt.Sprintf("a%d", i))
		b := v(1, fmt.Sprintf("b%d", i))
		d := v(2, fmt.Sprintf("c%d", i))
		c.Add(mustSimplex(a, b, d))
		for _, vert := range []topology.Vertex{a, b, d} {
			allowed[vert] = []string{"0", "1", "2"}
		}
	}
	return &Annotated{Complex: c, Allowed: allowed}
}

func BenchmarkFindConsensus(b *testing.B) {
	ann := benchAnnotated(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := decide(ann, 1, 0); err != nil || !found {
			b.Fatal("expected solvable")
		}
	}
}

func BenchmarkFindDecisionK2(b *testing.B) {
	ann := benchAnnotated(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := decide(ann, 2, 0); err != nil || !found {
			b.Fatal("expected solvable")
		}
	}
}

func BenchmarkCheckDecision(b *testing.B) {
	ann := benchAnnotated(50)
	dm := make(DecisionMap)
	for _, vert := range ann.Complex.Vertices() {
		dm[vert] = "0"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckDecision(ann, dm, 1); err != nil {
			b.Fatal(err)
		}
	}
}
