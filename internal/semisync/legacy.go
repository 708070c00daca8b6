package semisync

import (
	"fmt"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// LegacySerialRounds is the pre-engine serial construction of M^r(S),
// retained verbatim as a reference implementation: the differential tests
// pin the roundop engine's output against it hash for hash at every worker
// count. It shares oneRoundPatternOptions (via appendOneRoundPattern) with
// the engine adapter, so the two paths differ only in enumeration
// machinery.
func LegacySerialRounds(input topology.Simplex, p Params, r int) (*pc.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r < 0 {
		return nil, fmt.Errorf("semisync: negative round count %d", r)
	}
	res := pc.NewResult()
	if err := legacyRoundsRec(res, pc.InputViews(input), p, r); err != nil {
		return nil, err
	}
	return res, nil
}

func legacyRoundsRec(res *pc.Result, cur []*views.View, p Params, r int) error {
	if r == 0 {
		res.AddFacet(cur)
		return nil
	}
	ids := make([]int, len(cur))
	for i, v := range cur {
		ids[i] = v.P
	}
	maxFail := min(p.PerRound, p.Total)
	for _, fail := range syncmodel.FailureSets(ids, maxFail) {
		for _, f := range Patterns(fail, p.Micro()) {
			scratch := pc.NewResult()
			if r == 1 {
				scratch = res
			}
			facets, err := appendOneRoundPattern(scratch, cur, fail, f, p, -1)
			if err != nil {
				// Not expected — fail is drawn from the participant ids — but
				// propagated rather than panicking so callers (and the cmd
				// tools above them) fail with a message, not a stack trace.
				return err
			}
			next := p
			next.Total = p.Total - len(fail)
			for _, facet := range facets {
				if err := legacyRoundsRec(res, facet, next, r-1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
