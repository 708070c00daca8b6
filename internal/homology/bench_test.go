package homology

import (
	"context"
	"testing"

	"pseudosphere/internal/topology"
)

func benchSphereProduct(labels int) *topology.Complex {
	c := topology.NewComplex()
	for a := 0; a < labels; a++ {
		for b := 0; b < labels; b++ {
			for d := 0; d < labels; d++ {
				c.Add(mustSimplex(
					topology.Vertex{P: 0, Label: string(rune('a' + a))},
					topology.Vertex{P: 1, Label: string(rune('a' + b))},
					topology.Vertex{P: 2, Label: string(rune('a' + d))},
				))
			}
		}
	}
	return c
}

func BenchmarkBettiZ2(b *testing.B) {
	c := benchSphereProduct(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BettiZ2(c)
	}
}

// The engine ablation: the serial sparse reference against the engine,
// unmemoized and memoized, all on the same complex (7^3 = 343 facets).
func benchEngine(b *testing.B, e *Engine) {
	c := benchSphereProduct(7)
	want := BettiZ2(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := e.BettiZ2Ctx(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		for d := range want {
			if got[d] != want[d] {
				b.Fatalf("betti = %v, want %v", got, want)
			}
		}
	}
}

func BenchmarkEngineSerial(b *testing.B) {
	benchEngine(b, NewEngine(1, nil))
}

func BenchmarkEngineCached(b *testing.B) {
	benchEngine(b, NewEngine(1, NewCache()))
}

func BenchmarkBettiGFp(b *testing.B) {
	c := benchSphereProduct(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BettiGFp(c, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBettiQ(b *testing.B) {
	c := benchSphereProduct(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BettiQ(c)
	}
}

func BenchmarkPi1Trivial(b *testing.B) {
	c := benchSphereProduct(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pi1Trivial(c)
	}
}

func BenchmarkIsGraphConnected(b *testing.B) {
	c := benchSphereProduct(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !IsGraphConnected(c) {
			b.Fatal("disconnected")
		}
	}
}
