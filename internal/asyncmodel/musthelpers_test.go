package asyncmodel

import (
	"context"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

// mustSimplex binds the shared test constructor; see internal/testutil.
var mustSimplex = testutil.MustSimplex

// build returns A^r(input) through the shared engine.
func build(input topology.Simplex, p Params, r int) (*pc.Result, error) {
	return roundop.Build(context.Background(), p.Operator(), input, r, roundop.Options{})
}
