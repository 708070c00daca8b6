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
// order (the IIS constructor emits them in partition-block order) but
// must have distinct process ids, as any global state does.
func (r *Result) AddFacet(vs []*views.View) topology.Simplex {
	s := make(topology.Simplex, len(vs))
	for i, v := range vs {
		s[i] = topology.Vertex{P: v.P, Label: v.Encode()}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].P < s[j].P })
	if r.addNew(s) {
		for _, v := range vs {
			r.Views[topology.Vertex{P: v.P, Label: v.Encode()}] = v // Encode only reads
		}
	}
	return s
}

// AddFacetVertices is AddFacet with the vertex encodings already built:
// verts[i] must be the vertex of vs[i]. The model constructors precompute
// one vertex per (participant, heard-set) option, so facet insertion skips
// re-encoding views facet by facet.
func (r *Result) AddFacetVertices(verts []topology.Vertex, vs []*views.View) topology.Simplex {
	// verts comes from the constructors' per-position option tables, one
	// option per participant in ascending process-id order, so the slice
	// is already a valid chromatic simplex; copy it (callers reuse the
	// backing array facet by facet) and skip re-validation.
	s := make(topology.Simplex, len(verts))
	copy(s, verts)
	if r.addNew(s) {
		for i, v := range vs {
			r.Views[verts[i]] = v
		}
	}
	return s
}

// addNew inserts s with all its faces and reports whether that interned a
// new vertex. Only then do the callers record views: every vertex already
// in the complex already has its view, and a round complex has far fewer
// vertices than facets.
func (r *Result) addNew(s topology.Simplex) bool {
	known := r.Complex.VertexCount()
	r.Complex.Add(s)
	return r.Complex.VertexCount() != known
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
