package syncmodel

import (
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// Operator returns the synchronous model as a round operator for the
// shared engine; roundop.Build over it yields S^r(S), r lockstep rounds
// with at most PerRound failures per round and Total overall. One
// synchronous round has a branch per failure set K of size at most
// min(PerRound, Total), in the paper's order (by cardinality, then
// lexicographically); within a branch each survivor independently hears
// all survivors plus an arbitrary subset of K (Lemma 14), so S^1(S) is
// the union of the S^1_K(S). Following the paper's decomposition, the
// executions whose first-round failure set is K continue as an
// (r-1)-round, (Total-|K|)-faulty protocol among the survivors. Invalid
// parameters are a Branches error.
func (p Params) Operator() roundop.Operator {
	return syncOperator{p: p}
}

type syncOperator struct {
	p Params
}

func (o syncOperator) Branches(cur []*views.View) ([]roundop.Branch, error) {
	if err := o.p.Validate(); err != nil {
		return nil, err
	}
	ids := make([]int, len(cur))
	for i, v := range cur {
		ids[i] = v.P
	}
	hs := views.NewHeardSets(cur)
	var out []roundop.Branch
	for _, fail := range FailureSets(ids, min(o.p.PerRound, o.p.Total)) {
		opts, err := oneRoundExactlyOptions(hs, cur, fail, -1)
		if err != nil {
			return nil, err
		}
		if opts == nil {
			continue
		}
		next := Params{PerRound: o.p.PerRound, Total: o.p.Total - len(fail)}
		out = append(out, roundop.Branch{Opts: opts, Next: syncOperator{p: next}})
	}
	return out, nil
}
