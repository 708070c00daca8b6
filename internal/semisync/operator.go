package semisync

import (
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/views"
)

// Operator returns the semi-synchronous model as a round operator for the
// shared engine; roundop.Build over it yields M^r(S), r semi-synchronous
// rounds with at most PerRound failures per round and Total overall,
// mirroring the synchronous iterated construction. One round has a branch
// per (failure set K, failure pattern F) pair in the paper's
// lexicographic order — failure sets by cardinality then
// lexicographically, patterns in reverse lexicographic order — and within
// a branch each survivor independently sees each failing process last at
// microround F(P_j)-1 or F(P_j) (Lemma 19), so M^1(S) is the union of
// the M^1_{K,F}(S). The branch's continuation rounds run with the failure
// budget reduced by |K|. Invalid parameters are a Branches error.
func (p Params) Operator() roundop.Operator {
	return semiOperator{p: p}
}

type semiOperator struct {
	p Params
}

func (o semiOperator) Branches(cur []*views.View) ([]roundop.Branch, error) {
	if err := o.p.Validate(); err != nil {
		return nil, err
	}
	ids := make([]int, len(cur))
	for i, v := range cur {
		ids[i] = v.P
	}
	var out []roundop.Branch
	for _, fail := range syncmodel.FailureSets(ids, min(o.p.PerRound, o.p.Total)) {
		for _, f := range Patterns(fail, o.p.Micro()) {
			opts, err := oneRoundPatternOptions(cur, fail, f, o.p, -1)
			if err != nil {
				return nil, err
			}
			if opts == nil {
				continue
			}
			next := o.p
			next.Total = o.p.Total - len(fail)
			out = append(out, roundop.Branch{Opts: opts, Next: semiOperator{p: next}})
		}
	}
	return out, nil
}
