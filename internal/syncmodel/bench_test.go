package syncmodel

import "testing"

func BenchmarkOneRound4ProcsK1(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	p := Params{PerRound: 1, Total: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneRound5ProcsK2(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d", "e")
	p := Params{PerRound: 2, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoRounds4ProcsK1(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	p := Params{PerRound: 1, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLemma15RHS(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lemma15RHS(input, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}
