package semisync

import "testing"

func BenchmarkOneRound3ProcsK1(b *testing.B) {
	input := inputSimplex("a", "b", "c")
	p := timing(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneRound3ProcsK2Micro3(b *testing.B) {
	input := inputSimplex("a", "b", "c")
	p := Params{C1: 1, C2: 2, D: 3, PerRound: 2, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoRounds4ProcsK1(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	p := timing(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatterns(b *testing.B) {
	fail := []int{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Patterns(fail, 4)
	}
}
