// Package pc holds the protocol-complex result type shared by the three
// model packages: a simplicial complex whose vertices are labeled with
// canonical view encodings, together with the decoded view behind each
// vertex.
package pc

import (
	"sort"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Result is a protocol complex with the full-information view behind every
// vertex.
type Result struct {
	Complex *topology.Complex
	Views   map[topology.Vertex]*views.View
}

// NewResult returns an empty result.
func NewResult() *Result {
	return &Result{
		Complex: topology.NewComplex(),
		Views:   make(map[topology.Vertex]*views.View),
	}
}

// AddFacet records the global state given by one view per process as a
// simplex (plus all faces) and returns it. The views may arrive in any
// order but must have distinct process ids, as any global state does.
// Views are recorded only when the facet interned a new vertex: every
// vertex already in the complex already has its view.
func (r *Result) AddFacet(vs []*views.View) topology.Simplex {
	s := make(topology.Simplex, len(vs))
	for i, v := range vs {
		s[i] = topology.Vertex{P: v.P, Label: v.Encode()}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].P < s[j].P })
	known := r.Complex.VertexCount()
	r.Complex.Add(s)
	if r.Complex.VertexCount() != known {
		for _, v := range vs {
			r.Views[topology.Vertex{P: v.P, Label: v.Encode()}] = v // Encode only reads
		}
	}
	return s
}

// Merge unions another result into r.
func (r *Result) Merge(other *Result) {
	r.Complex.UnionWith(other.Complex)
	for v, view := range other.Views {
		r.Views[v] = view
	}
}

// InputViews converts an input simplex (vertex labels are input values)
// into round-0 views.
func InputViews(input topology.Simplex) []*views.View {
	vs := make([]*views.View, len(input))
	for i, v := range input {
		vs[i] = views.Initial(v.P, v.Label)
	}
	return vs
}
