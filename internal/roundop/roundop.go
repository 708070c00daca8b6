// Package roundop is the unified round-operator engine behind the model
// constructors. The paper's central observation is that the asynchronous,
// synchronous, and semi-synchronous round complexes are all built the same
// way: a round is a set of *branches* (the adversary's coarse choice — a
// failure set K, a failure pattern F, or nothing at all), and within each
// branch every surviving process independently picks one admissible next
// view, so the branch's executions form the product of per-process option
// lists (a pseudosphere, per Lemmas 11/14/19). This package owns that
// shape once: a model is an Operator that yields branches with their
// option tables, and Build supplies everything downstream — the shard
// plan, mixed-radix facet-product iteration, one shard claim loop for
// every worker count, private-complex merging, checkpointing,
// cooperative cancellation, obs counters, and the iterated composition
// R^r.
//
// The model packages (asyncmodel, syncmodel, semisync, iis) are thin
// adapters: an Operator that validates its parameters and generates
// option tables. Adding a new model — a different failure structure, a
// dynamic network — means writing only a Branches method.
package roundop

import (
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Branch is one coarse adversary choice for a round: the per-position
// option tables of the surviving processes (positions in ascending process
// id, each a nonempty list of admissible next views) and the operator
// governing the continuation rounds (the same operator, or one with a
// decremented failure budget). The branch's one-round executions are the
// cartesian product of the option lists. A branch with an empty option
// table contributes nothing (e.g. every process failed).
type Branch struct {
	Opts [][]pc.Option
	Next Operator
}

// Operator is a model's one-round construction: given the participants'
// current views, the set of branches the adversary may choose. Branches
// must be deterministic and ordered (the Mayer–Vietoris proofs iterate the
// union in branch order), and the option tables must be safe for
// concurrent read — views are encoded when built and never change, so
// workers never mutate shared state. cur is in ascending process order.
// Branches reports invalid model parameters as an error, which Build
// returns.
type Operator interface {
	Branches(cur []*views.View) ([]Branch, error)
}

// BranchResults enumerates each branch of one round over the input simplex
// into its own result, in operator order. These are the pseudosphere
// pieces whose union is the one-round complex; the Mayer–Vietoris proof
// tests iterate Theorem 2 along exactly this order.
func BranchResults(op Operator, input topology.Simplex) ([]*pc.Result, error) {
	branches, err := op.Branches(pc.InputViews(input))
	if err != nil {
		return nil, err
	}
	var out []*pc.Result
	for _, b := range branches {
		if len(b.Opts) == 0 {
			continue
		}
		out = append(out, Product(b.Opts))
	}
	return out, nil
}

// Product returns the complex of one option table's facet product: every
// choice of one option per position is a facet. The facets enter the
// result through the vertex-id enumerator Build's shards use, so there is
// one way to insert a facet product. An empty table, or one with an
// empty position, gives an empty result.
func Product(opts [][]pc.Option) *pc.Result {
	res := pc.NewResult()
	if job, ok := branchJob(Branch{Opts: opts}); ok {
		new(enum).final(res, job)
	}
	return res
}
