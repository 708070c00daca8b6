package protocols

import (
	"testing"

	"pseudosphere/internal/sim"
)

func BenchmarkFloodSetAllSchedules(b *testing.B) {
	inputs := []string{"0", "1", "2"}
	schedules := allSchedules(b, 3, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range schedules {
			out, err := sim.RunSync(inputs, NewFloodSet(1), cs, 3)
			if err != nil {
				b.Fatal(err)
			}
			if err := out.CheckConsensus(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEarlyDecidingFailureFree(b *testing.B) {
	inputs := []string{"0", "1", "2", "3"}
	for i := 0; i < b.N; i++ {
		out, err := sim.RunSync(inputs, NewEarlyDecidingConsensus(2), nil, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := out.CheckConsensus(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncKSet(b *testing.B) {
	inputs := []string{"3", "1", "2", "0"}
	for i := 0; i < b.N; i++ {
		sched := sim.NewRandomAsyncSchedule(4, 1, int64(i))
		out, err := sim.RunAsync(inputs, NewAsyncKSet(), nil, sched, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := out.CheckKSetAgreement(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemiSyncKSet(b *testing.B) {
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	inputs := []string{"2", "0", "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sim.RunTimed(inputs, NewSemiSyncKSet(1, 1), timing,
			sim.LockstepSchedule{Timing: timing}, nil, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if err := run.Outcome.CheckConsensus(); err != nil {
			b.Fatal(err)
		}
	}
}
