package iis

import (
	"context"
	"testing"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

// mustSimplex binds the shared test constructor; see internal/testutil.
var mustSimplex = testutil.MustSimplex

// build returns IIS_r over input through the shared engine on one worker.
func build(input topology.Simplex, r int) (*pc.Result, error) {
	return roundop.Build(context.Background(), Operator(), input, r, roundop.Options{})
}

// oneRound returns the one-round IIS complex over input.
func oneRound(tb testing.TB, input topology.Simplex) *pc.Result {
	tb.Helper()
	res, err := build(input, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
