package asyncmodel

import (
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// Operator returns the asynchronous model as a round operator for the
// shared engine; roundop.Build over it yields A^r(S). One asynchronous
// round has a single branch — the adversary makes no coarse choice; every
// participant just independently picks an admissible heard set, so A^1(S)
// is one pseudosphere (Lemma 11) — and the failure bound is global, so
// the continuation uses the same operator (Section 6: n and f are
// unchanged when the construction recurses into executions with fewer
// participants). A^r(S) is the union of A^{r-1}(T) over the facets T of
// A^1(S): for T' a face of T, A^{r-1}(T') is a subcomplex of A^{r-1}(T),
// and closure under faces supplies the lower-dimensional simplexes (the
// tests check this against the union over all simplexes). Over an input
// with fewer than n-f+1 participants the round has no branches
// (DegenerateInput), and invalid parameters are a Branches error.
func (p Params) Operator() roundop.Operator {
	return asyncOperator{p: p}
}

type asyncOperator struct {
	p Params
}

func (o asyncOperator) Branches(cur []*views.View) ([]roundop.Branch, error) {
	if err := o.p.Validate(); err != nil {
		return nil, err
	}
	opts := oneRoundOptions(cur, o.p)
	if opts == nil {
		return nil, nil
	}
	return []roundop.Branch{{Opts: opts, Next: o}}, nil
}
