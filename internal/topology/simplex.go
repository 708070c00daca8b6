// Package topology implements the combinatorial-topology substrate used by
// the pseudosphere constructions of Herlihy, Rajsbaum, and Tuttle (PODC
// 1998): chromatic vertices, simplexes, and simplicial complexes closed
// under containment, together with the elementary operations (faces, stars,
// unions, intersections, skeletons, joins, subdivisions, simplicial maps)
// that the paper's proofs use.
//
// All complexes in the paper are chromatic: every vertex carries a process
// id ("color"), and the vertices of any simplex carry distinct ids. This
// package enforces chromaticity, which both matches the paper's definitions
// and keeps canonical encodings cheap.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Vertex is a chromatic vertex: a process id (the color) paired with a
// canonical label. Two vertices are the same point if and only if both
// fields are equal. Model packages encode local states (heard-from sets,
// microround view vectors, nested full-information views) into canonical
// label strings, so that global states that share a local state share a
// vertex, exactly as in the paper's protocol complexes.
type Vertex struct {
	P     int    // process id; must be >= 0
	Label string // canonical encoding of the local state or value
}

// String returns a compact human-readable form, e.g. "P2:011".
func (v Vertex) String() string {
	return fmt.Sprintf("P%d:%s", v.P, v.Label)
}

// Simplex is a finite set of chromatic vertices with pairwise-distinct
// process ids, kept sorted by process id. The zero value is the empty
// simplex (dimension -1). Simplexes are immutable by convention: none of
// the methods mutate the receiver, and callers must not modify a Simplex
// after passing it to a Complex.
type Simplex []Vertex

// NewSimplex builds a simplex from the given vertices, sorting them by
// process id. It reports an error if two vertices share a process id but
// differ, or if a process id is negative. Exact duplicates are collapsed.
func NewSimplex(vs ...Vertex) (Simplex, error) {
	s := make(Simplex, 0, len(vs))
	s = append(s, vs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].P != s[j].P {
			return s[i].P < s[j].P
		}
		return s[i].Label < s[j].Label
	})
	out := s[:0]
	for i, v := range s {
		if v.P < 0 {
			return nil, fmt.Errorf("topology: vertex %v has negative process id", v)
		}
		if i > 0 && v.P == s[i-1].P {
			if v.Label != s[i-1].Label {
				return nil, fmt.Errorf("topology: simplex is not chromatic: two vertices with process id %d (%q, %q)", v.P, s[i-1].Label, v.Label)
			}
			continue // exact duplicate
		}
		out = append(out, v)
	}
	return out, nil
}

// Dim returns the dimension of the simplex: one less than the number of
// vertices. The empty simplex has dimension -1.
func (s Simplex) Dim() int { return len(s) - 1 }

// IDs returns the sorted process ids of the simplex's vertices.
func (s Simplex) IDs() []int {
	ids := make([]int, len(s))
	for i, v := range s {
		ids[i] = v.P
	}
	return ids
}

// LabelOf returns the label of the vertex with the given process id, and
// whether the simplex has such a vertex.
func (s Simplex) LabelOf(p int) (string, bool) {
	for _, v := range s {
		if v.P == p {
			return v.Label, true
		}
	}
	return "", false
}

// HasID reports whether some vertex of the simplex has the given process id.
func (s Simplex) HasID(p int) bool {
	_, ok := s.LabelOf(p)
	return ok
}

// Key returns a canonical string key identifying the simplex. Two simplexes
// are equal if and only if their keys are equal. Key is on the hot path of
// every chain-complex and hash computation, so it avoids fmt.
func (s Simplex) Key() string {
	n := 0
	for _, v := range s {
		n += len(v.Label) + 12
	}
	var b strings.Builder
	b.Grow(n)
	for i, v := range s {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(v.P))
		b.WriteByte(':')
		b.WriteString(v.Label)
	}
	return b.String()
}

// Face returns the codimension-1 face obtained by omitting the i-th vertex
// (in process-id order).
func (s Simplex) Face(i int) Simplex {
	f := make(Simplex, 0, len(s)-1)
	f = append(f, s[:i]...)
	f = append(f, s[i+1:]...)
	return f
}

// WithoutID returns the face obtained by dropping the vertex with process
// id p (s itself if absent).
func (s Simplex) WithoutID(p int) Simplex {
	for i, v := range s {
		if v.P == p {
			return s.Face(i)
		}
	}
	return s
}

// WithoutIDs returns the face obtained by dropping every vertex whose
// process id is in the given set.
func (s Simplex) WithoutIDs(ids map[int]bool) Simplex {
	f := make(Simplex, 0, len(s))
	for _, v := range s {
		if !ids[v.P] {
			f = append(f, v)
		}
	}
	return f
}

// IsFaceOf reports whether every vertex of s is a vertex of t.
func (s Simplex) IsFaceOf(t Simplex) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, v := range s {
		for i < len(t) && t[i] != v {
			i++
		}
		if i == len(t) {
			return false
		}
		i++
	}
	return true
}

// Intersect returns the common face of s and t: the simplex spanned by the
// vertices that appear in both.
func (s Simplex) Intersect(t Simplex) Simplex {
	var f Simplex
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i].P < t[j].P:
			i++
		case s[i].P > t[j].P:
			j++
		default:
			if s[i] == t[j] {
				f = append(f, s[i])
			}
			i++
			j++
		}
	}
	return f
}

// Join returns the simplex spanned by the vertices of s and t together. It
// reports an error if the result would not be chromatic.
func (s Simplex) Join(t Simplex) (Simplex, error) {
	vs := make([]Vertex, 0, len(s)+len(t))
	vs = append(vs, s...)
	vs = append(vs, t...)
	return NewSimplex(vs...)
}

// String returns a readable rendering such as "(P0:0, P1:1)".
func (s Simplex) String() string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ProperFaces returns all proper faces of s (including the empty simplex's
// immediate predecessors down to vertices; the empty simplex itself is not
// returned). The result has 2^(dim+1)-2 simplexes.
func (s Simplex) ProperFaces() []Simplex {
	n := len(s)
	var out []Simplex
	for mask := 1; mask < (1<<n)-1; mask++ {
		f := make(Simplex, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				f = append(f, s[i])
			}
		}
		out = append(out, f)
	}
	return out
}
