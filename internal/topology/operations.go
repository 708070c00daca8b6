package topology

import (
	"fmt"
	"sort"
)

// Cone returns the cone over c: the join of c with a fresh apex vertex.
// The apex process id must not occur in c. Cones are contractible, which
// the homology tests use to validate the engine.
func Cone(c *Complex, apex Vertex) (*Complex, error) {
	for _, p := range c.IDs() {
		if p == apex.P {
			return nil, fmt.Errorf("topology: apex id %d already occurs in the complex", apex.P)
		}
	}
	out := c.Clone()
	out.Add(Simplex{apex})
	for _, s := range c.AllSimplices() {
		j, err := s.Join(Simplex{apex})
		if err != nil {
			return nil, err
		}
		out.Add(j)
	}
	return out, nil
}

// Suspension returns the suspension of c: the union of two cones with
// distinct apexes. Suspension shifts reduced homology up by one degree
// (the suspension isomorphism), giving the tests a nontrivial invariant
// to check the engine against.
func Suspension(c *Complex, north, south Vertex) (*Complex, error) {
	if north.P == south.P {
		return nil, fmt.Errorf("topology: suspension apexes must have distinct process ids")
	}
	up, err := Cone(c, north)
	if err != nil {
		return nil, err
	}
	down, err := Cone(c, south)
	if err != nil {
		return nil, err
	}
	return up.Union(down), nil
}

// ConnectedComponents partitions the vertices of c by 1-skeleton
// connectivity and returns the components as full subcomplexes, sorted by
// their smallest vertex.
func (c *Complex) ConnectedComponents() []*Complex {
	verts := c.Vertices()
	if len(verts) == 0 {
		return nil
	}
	idx := make(map[Vertex]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	parent := make([]int, len(verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range c.Simplices(1) {
		a, b := find(idx[e[0]]), find(idx[e[1]])
		parent[a] = b
	}
	byRoot := make(map[int]*Complex)
	for _, s := range c.AllSimplices() {
		root := find(idx[s[0]])
		comp, ok := byRoot[root]
		if !ok {
			comp = NewComplex()
			byRoot[root] = comp
		}
		comp.Add(s)
	}
	out := make([]*Complex, 0, len(byRoot))
	for _, comp := range byRoot {
		out = append(out, comp)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i].Vertices()[0], out[j].Vertices()[0]
		if vi.P != vj.P {
			return vi.P < vj.P
		}
		return vi.Label < vj.Label
	})
	return out
}
