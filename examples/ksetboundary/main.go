// K-set boundary: sweep the agreement parameter k for a fixed failure
// bound f in the asynchronous model and watch Corollary 13's boundary:
// impossibility for k <= f flips to a live protocol at k = f+1.
//
//	go run ./examples/ksetboundary
package main

import (
	"context"
	"fmt"
	"log"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/bounds"
	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/task"
)

func main() {
	f := 1
	n := 2 // three processes
	fmt.Printf("asynchronous k-set agreement, n+1=%d processes, f=%d\n\n", n+1, f)

	for k := 1; k <= f+1; k++ {
		fmt.Printf("k = %d: Corollary 13 says %s\n", k, verdict(bounds.AsyncSolvable(k, f)))

		// The topology side: search for a decision map on the one-round
		// protocol complex over k+1 input values.
		values := make([]string, k+1)
		for i := range values {
			values[i] = fmt.Sprintf("%d", i)
		}
		op := asyncmodel.Params{N: n, F: f}.Operator()
		res := pc.NewResult()
		for _, s := range core.InputFacets(n, values) {
			sub, err := roundop.Build(context.Background(), op, s, 1, roundop.Options{})
			if err != nil {
				log.Fatal(err)
			}
			res.Merge(sub)
		}
		ann := task.AnnotateViews(res.Complex, res.Views)
		_, found, err := task.FindDecision(ann, k, 50_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  one-round protocol complex (%d facets): decision map exists = %v\n",
			len(res.Complex.Facets()), found)

		// The runtime side: at k = f+1 the wait-for-(n+1-f) protocol works.
		if k > f {
			inputs := []string{"2", "0", "1"}
			for seed := int64(0); seed < 50; seed++ {
				out, err := sim.RunAsync(inputs, protocols.NewAsyncKSet(), nil,
					sim.NewRandomAsyncSchedule(len(inputs), f, seed), 2)
				if err != nil {
					log.Fatal(err)
				}
				if err := out.CheckKSetAgreement(k); err != nil {
					log.Fatalf("seed %d: %v", seed, err)
				}
			}
			fmt.Printf("  runtime: one-round protocol satisfied %d-set agreement across 50 adversarial schedules\n", k)
		}
		fmt.Println()
	}
}

func verdict(solvable bool) string {
	if solvable {
		return "solvable (k > f)"
	}
	return "IMPOSSIBLE (k <= f)"
}
