// Similarity chain: reconstruct the classical impossibility skeleton in
// the one-round asynchronous complex — a chain of pairwise-indistinguishable
// global states connecting the all-zeros execution to the all-ones
// execution. Along such a chain a consensus decision cannot flip, which is
// the one-dimensional reading of Corollary 13.
//
//	go run ./examples/similaritychain
package main

import (
	"context"
	"fmt"
	"log"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/similarity"
	"pseudosphere/internal/topology"
)

func main() {
	p := asyncmodel.Params{N: 2, F: 1}
	res := pc.NewResult()
	for _, s := range core.InputFacets(p.N, []string{"0", "1"}) {
		sub, err := roundop.Build(context.Background(), p.Operator(), s, 1, roundop.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res.Merge(sub)
	}
	fmt.Printf("one-round async complex over binary inputs: %s\n", res.Complex.DescribeSummary())

	g, err := similarity.NewGraph(res.Complex, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("similarity graph: %d global states, connected: %v\n\n", len(g.Facets), g.Connected())

	allInputs := func(val string) func(topology.Simplex) bool {
		return func(s topology.Simplex) bool {
			if s.Dim() != p.N {
				return false
			}
			for _, vert := range s {
				view := res.Views[vert]
				vals := view.ValuesSeen()
				if len(vals) != 1 || vals[0] != val {
					return false
				}
			}
			return true
		}
	}
	chain := g.Chain(allInputs("0"), allInputs("1"))
	if chain == nil {
		log.Fatal("no chain found — the complex should be connected")
	}
	if err := similarity.ValidateChain(chain, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest similarity chain from all-0 to all-1: %d states\n", len(chain))
	for i, s := range chain {
		marker := " "
		if i > 0 {
			shared := similarity.Degree(chain[i-1], s)
			marker = fmt.Sprintf("^ shares %d local state(s) with the previous", shared)
		}
		fmt.Printf("%2d. %d-process state  %s\n", i, s.Dim()+1, marker)
	}
	fmt.Println("\na consensus protocol would have to decide identically at both ends — impossible.")
}
