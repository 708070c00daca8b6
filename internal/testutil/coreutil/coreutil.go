// Package coreutil holds the panic-on-error pseudosphere and protocol
// complex constructors shared by test suites above core in the import
// graph. It is separate from testutil so that packages below core
// (homology, topology) can use testutil without an import cycle; core's
// own internal tests keep local copies for the same reason.
package coreutil

import (
	"context"

	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

// MustUniform is core.Uniform for statically-correct test inputs; it
// panics on error.
func MustUniform(base topology.Simplex, set []string) *topology.Complex {
	c, err := core.Uniform(base, set)
	if err != nil {
		panic(err)
	}
	return c
}

// MustBuildOverInputs returns op's r-round complex over the whole input
// complex psi(P^n; values): the union of roundop.Build over its facets,
// whose shared local states share vertices because view encodings are
// canonical. It panics on error.
func MustBuildOverInputs(op roundop.Operator, n int, values []string, r int) *pc.Result {
	res := pc.NewResult()
	for _, s := range core.InputFacets(n, values) {
		sub, err := roundop.Build(context.Background(), op, s, r, roundop.Options{})
		if err != nil {
			panic(err)
		}
		res.Merge(sub)
	}
	return res
}
