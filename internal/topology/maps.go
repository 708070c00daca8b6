package topology

import (
	"fmt"
)

// VertexMap carries vertices of one complex to vertices of another. The
// paper's lemmas (11, 14, 19) exhibit explicit vertex maps L between
// protocol complexes and pseudospheres; VerifyIsomorphism checks those maps
// mechanically.
type VertexMap map[Vertex]Vertex

// Apply carries a simplex through the map. It reports an error if some
// vertex is not in the map's domain or the image is not a simplex (i.e. the
// map is not color-preserving enough to keep vertices distinct).
func (m VertexMap) Apply(s Simplex) (Simplex, error) {
	imgs := make([]Vertex, len(s))
	for i, v := range s {
		w, ok := m[v]
		if !ok {
			return nil, fmt.Errorf("topology: vertex %v not in map domain", v)
		}
		imgs[i] = w
	}
	return NewSimplex(imgs...)
}

// IsSimplicial reports whether m carries every simplex of src to a simplex
// of dst.
func (m VertexMap) IsSimplicial(src, dst *Complex) error {
	for _, s := range src.AllSimplices() {
		img, err := m.Apply(s)
		if err != nil {
			return fmt.Errorf("map not simplicial on %v: %w", s, err)
		}
		if !dst.Has(img) {
			return fmt.Errorf("image %v of %v is not a simplex of the target", img, s)
		}
	}
	return nil
}

// Inverse returns the inverse map; it reports an error if m is not
// injective.
func (m VertexMap) Inverse() (VertexMap, error) {
	inv := make(VertexMap, len(m))
	for v, w := range m {
		if prev, ok := inv[w]; ok {
			return nil, fmt.Errorf("topology: map is not injective: %v and %v both map to %v", prev, v, w)
		}
		inv[w] = v
	}
	return inv, nil
}

// VerifyIsomorphism checks that m is a simplicial isomorphism from src onto
// dst: a bijection on vertices that is simplicial in both directions. This
// is the notion of isomorphism (surjective, one-to-one simplicial map) used
// throughout the paper.
func VerifyIsomorphism(src, dst *Complex, m VertexMap) error {
	srcVerts := src.Vertices()
	dstVerts := dst.Vertices()
	if len(srcVerts) != len(dstVerts) {
		return fmt.Errorf("topology: vertex counts differ: %d vs %d", len(srcVerts), len(dstVerts))
	}
	if len(m) != len(srcVerts) {
		return fmt.Errorf("topology: map domain has %d vertices, complex has %d", len(m), len(srcVerts))
	}
	for _, v := range srcVerts {
		if _, ok := m[v]; !ok {
			return fmt.Errorf("topology: vertex %v of source not in map domain", v)
		}
	}
	inv, err := m.Inverse()
	if err != nil {
		return err
	}
	for _, w := range dstVerts {
		if _, ok := inv[w]; !ok {
			return fmt.Errorf("topology: vertex %v of target not in map image", w)
		}
	}
	if err := m.IsSimplicial(src, dst); err != nil {
		return fmt.Errorf("topology: forward direction: %w", err)
	}
	if err := inv.IsSimplicial(dst, src); err != nil {
		return fmt.Errorf("topology: inverse direction: %w", err)
	}
	return nil
}
