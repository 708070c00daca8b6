package semisync

import (
	"context"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

// mustSimplex binds the shared test constructor; see internal/testutil.
var mustSimplex = testutil.MustSimplex

// build returns M^r(input) through the shared engine on one worker.
func build(input topology.Simplex, p Params, r int) (*pc.Result, error) {
	return roundop.Build(context.Background(), p.Operator(), input, r, roundop.Options{})
}
