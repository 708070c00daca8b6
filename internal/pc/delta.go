package pc

import (
	"fmt"
	"slices"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// The legacy delta reader. Before the record codec (record.go), job
// checkpoint records and distributed-build completion frames carried a
// face-closed result as JSON: a vertex table plus every simplex of the
// complex as a row of vertex-table indices, in any order. Nothing writes
// that form any more; DecodeDelta keeps logs and frames written by older
// builds readable, so a job interrupted before an upgrade resumes after
// it and a replica mid-upgrade can still deliver shards.

// DeltaVert is one vertex-table entry of an encoded delta: the process id
// and the encoded view label. It marshals as {"p":..,"l":..}.
type DeltaVert struct {
	P int    `json:"p"`
	L string `json:"l"`
}

// DecodeDelta validates an encoded delta in full and returns the result
// only when every check passes: every label must decode to a view of its
// process id, every row index must name a table entry, every row must be
// a chromatic simplex, and the rows must be face-closed, as anything the
// old encoder wrote is. A corrupt or adversarial delta therefore yields
// an error and never a result, in particular never a complex holding a
// simplex without its faces.
func DecodeDelta(verts []DeltaVert, simps [][]int32) (*Result, error) {
	table := make([]topology.Vertex, len(verts))
	vw := make([]*views.View, len(verts))
	for i, v := range verts {
		view, err := views.Decode(v.L)
		if err != nil || view.P != v.P {
			return nil, fmt.Errorf("pc: delta vertex %d is not a valid view for process %d", i, v.P)
		}
		table[i] = topology.Vertex{P: v.P, Label: v.L}
		vw[i] = view
	}
	ss := make([]topology.Simplex, len(simps))
	for i, row := range simps {
		vs := make([]topology.Vertex, len(row))
		for j, id := range row {
			if id < 0 || int(id) >= len(table) {
				return nil, fmt.Errorf("pc: delta simplex references vertex %d of %d", id, len(table))
			}
			vs[j] = table[id]
		}
		s, err := topology.NewSimplex(vs...)
		if err != nil {
			return nil, fmt.Errorf("pc: delta simplex: %w", err)
		}
		ss[i] = s
	}
	r := NewResult()
	for i, v := range table {
		r.Views[v] = vw[i]
	}
	for _, s := range ss {
		r.Complex.AddClosed(s)
	}
	// AddClosed trusted the rows to be face-closed; check it. Each entry's
	// codimension-1 faces must be entries too (EntryFaces yields -1 for a
	// missing one), and by induction on dimension so must all its faces.
	var faces []int32
	for ei := int32(0); ei < int32(r.Complex.EntryCount()); ei++ {
		faces = r.Complex.EntryFaces(ei, faces[:0])
		if slices.Contains(faces, -1) {
			return nil, fmt.Errorf("pc: delta is not face-closed: a face of %v is missing", r.Complex.EntrySimplex(ei))
		}
	}
	return r, nil
}
