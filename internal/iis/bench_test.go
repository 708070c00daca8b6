package iis

import "testing"

func BenchmarkOneRound3Procs(b *testing.B) {
	input := inputSimplex("a", "b", "c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRound(b, input)
	}
}

func BenchmarkOneRound4Procs(b *testing.B) {
	input := inputSimplex("a", "b", "c", "d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRound(b, input)
	}
}

func BenchmarkTwoRounds2Procs(b *testing.B) {
	input := inputSimplex("a", "b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(input, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderedPartitions(b *testing.B) {
	ids := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrderedPartitions(ids)
	}
}
