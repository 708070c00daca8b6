package pc

// EncodeDelta dumps r's face-closed complex in the legacy delta form that
// DecodeDelta reads: a vertex table and one vertex-index row per simplex,
// in insertion order. Only tests write that form now.
func EncodeDelta(r *Result) ([]DeltaVert, [][]int32) {
	c := r.Complex
	verts := make([]DeltaVert, c.VertexCount())
	for id := range verts {
		v := c.VertexAt(int32(id))
		verts[id] = DeltaVert{P: v.P, L: v.Label}
	}
	simps := make([][]int32, c.EntryCount())
	for ei := range simps {
		simps[ei] = c.AppendEntryIDs(nil, int32(ei))
	}
	return verts, simps
}
