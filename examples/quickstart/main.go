// Quickstart: build the paper's Figure 1 pseudosphere, inspect its
// topology, and run a solvability check on a one-round protocol complex.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/task"
)

func main() {
	// 1. A pseudosphere (Definition 3): independently assign {0,1} to
	// three processes. The result is a combinatorial 2-sphere (Figure 1).
	ps, err := core.Uniform(core.ProcessSimplex(2), []string{"0", "1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("psi(S^2; {0,1}) — the paper's Figure 1")
	fmt.Printf("  f-vector: %v, Euler characteristic: %d\n", ps.FVector(), ps.EulerCharacteristic())
	fmt.Printf("  Betti numbers: %v (the 2-sphere)\n", homology.BettiZ2(ps))
	fmt.Printf("  connectivity: %d-connected\n", homology.Connectivity(ps))

	// 2. The one-round asynchronous protocol complex is itself a
	// pseudosphere (Lemma 11). roundop.Build runs a model's round
	// operator over one input simplex; the union over every binary input
	// is the protocol complex of the whole input complex.
	p := asyncmodel.Params{N: 2, F: 1}
	res := pc.NewResult()
	for _, s := range core.InputFacets(p.N, []string{"0", "1"}) {
		sub, err := roundop.Build(context.Background(), p.Operator(), s, 1, roundop.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res.Merge(sub)
	}
	fmt.Println("\nA^1 over all binary inputs, n=2, f=1")
	fmt.Printf("  f-vector: %v, facets: %d\n", res.Complex.FVector(), len(res.Complex.Facets()))

	// 3. Solvability: Corollary 13 says consensus (k=1 <= f=1) is
	// impossible; the exact decision-map search agrees.
	ann := task.AnnotateViews(res.Complex, res.Views)
	_, found, err := task.FindDecision(ann, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconsensus decision map exists: %v (Corollary 13 predicts impossible)\n", found)
}
