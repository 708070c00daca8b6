// Consensus: run FloodSet on the synchronous runtime under every
// adversarial crash schedule and relate the observed round count to the
// Theorem 18 lower bound (k=1: f+1 rounds).
//
//	go run ./examples/consensus
package main

import (
	"context"
	"fmt"
	"log"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/sim"
)

func main() {
	inputs := []string{"0", "1", "2"}
	f := 1
	n := len(inputs) - 1

	lb, err := bounds.SyncRoundLowerBound(n, f, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 18 (k=1): consensus with n=%d, f=%d needs %d rounds\n", n, f, lb)

	// The f+1-round protocol survives EVERY crash schedule.
	schedules, err := sim.EnumerateCrashSchedules(context.Background(), len(inputs), f, f+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrunning FloodSet (%d rounds) under all %d crash schedules...\n", f+1, len(schedules))
	for _, cs := range schedules {
		out, err := sim.RunSync(inputs, protocols.NewFloodSet(f), cs, f+2)
		if err != nil {
			log.Fatal(err)
		}
		if err := out.CheckConsensus(); err != nil {
			log.Fatalf("consensus violated under %v: %v", cs, err)
		}
	}
	fmt.Println("consensus held in every execution")

	// One round fewer is NOT enough: exhibit a breaking schedule.
	short := protocols.NewSyncKSet(0, 1) // flood for only 1 round
	shortSchedules, err := sim.EnumerateCrashSchedules(context.Background(), len(inputs), f, f)
	if err != nil {
		log.Fatal(err)
	}
	for _, cs := range shortSchedules {
		out, err := sim.RunSync(inputs, short, cs, f+1)
		if err != nil {
			log.Fatal(err)
		}
		if err := out.CheckConsensus(); err != nil {
			fmt.Printf("\nwith only %d round(s), schedule %v breaks consensus:\n", f, describe(cs))
			for p := 0; p < len(inputs); p++ {
				if out.Crashed[p] {
					fmt.Printf("  P%d: input %s, crashed\n", p, out.Inputs[p])
				} else {
					fmt.Printf("  P%d: input %s, decided %s\n", p, out.Inputs[p], out.Decisions[p])
				}
			}
			fmt.Printf("  -> %v\n", err)
			return
		}
	}
	log.Fatal("expected some schedule to break the short protocol")
}

func describe(cs sim.CrashSchedule) string {
	for p, c := range cs {
		recv := make([]int, 0, len(c.DeliveredTo))
		for q := range c.DeliveredTo {
			recv = append(recv, q)
		}
		return fmt.Sprintf("P%d crashes in round %d reaching %v", p, c.Round, recv)
	}
	return "failure-free"
}
