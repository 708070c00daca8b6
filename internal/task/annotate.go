package task

import (
	"math"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// AnnotateViews builds an Annotated complex from a protocol complex whose
// vertices carry full-information views: the allowed decision values at a
// vertex are exactly the input values visible in its view (see the
// Annotated documentation for why this is the validity constraint).
func AnnotateViews(c *topology.Complex, vm map[topology.Vertex]*views.View) *Annotated {
	allowed := make(map[topology.Vertex][]string, len(vm))
	for vert, view := range vm {
		if c.HasVertex(vert) {
			allowed[vert] = view.ValuesSeen()
		}
	}
	return &Annotated{Complex: c, Allowed: allowed}
}

// SearchSpaceLog2 returns log2 of the number of candidate decision maps of
// the annotated complex: the sum over vertices of log2 |Allowed(v)|. It is
// the budgeted-admission seam for the decision search — a query service
// compares it against a budget to refuse absurd searches upfront and to
// size the node limit it passes to FindDecisionParallelCtx, without
// touching the exponentially larger object itself.
func SearchSpaceLog2(a *Annotated) float64 {
	bits := 0.0
	for _, v := range a.Complex.Vertices() {
		if n := len(a.Allowed[v]); n > 1 {
			bits += math.Log2(float64(n))
		}
	}
	return bits
}
