package asyncmodel

import (
	"testing"

	"pseudosphere/internal/testutil/coreutil"
)

func BenchmarkOneRoundN2F1(b *testing.B) {
	input := inputSimplex("a", "b", "c")
	p := Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneRoundN3F3(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	p := Params{N: 3, F: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoRoundsN2F1(b *testing.B) {
	input := inputSimplex("a", "b", "c")
	p := Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildOverInputs(b *testing.B) {
	p := Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coreutil.MustBuildOverInputs(p.Operator(), p.N, []string{"0", "1"}, 1)
	}
}
