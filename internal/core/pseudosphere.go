// Package core implements the paper's primary contribution: the
// pseudosphere (Definition 3), its combinatorial algebra (Lemma 4), and the
// connectivity corollaries (Corollaries 6 and 8) that make unions of
// pseudospheres tractable. Model packages (asyncmodel, syncmodel, semisync)
// express their one-round protocol complexes as (unions of) pseudospheres
// built here, exactly as in Lemmas 11, 14, and 19.
package core

import (
	"fmt"
	"sort"
	"strings"

	"pseudosphere/internal/topology"
)

// LabelSep separates a base-vertex label from an assigned value in the
// labels of pseudosphere vertices. Base vertices with empty labels (bare
// process simplexes) produce vertices labeled by the value alone.
const LabelSep = "‖"

// VertexFor returns the pseudosphere vertex for base vertex b assigned
// value u.
func VertexFor(b topology.Vertex, u string) topology.Vertex {
	if b.Label == "" {
		return topology.Vertex{P: b.P, Label: u}
	}
	return topology.Vertex{P: b.P, Label: b.Label + LabelSep + u}
}

// Pseudosphere constructs psi(S; U_0, ..., U_m) per Definition 3: the
// complex whose vertices are pairs (s_i, u) with u in sets[i], and whose
// simplexes are spanned by vertices with distinct base vertices. sets must
// have one entry per vertex of base (in process-id order). An empty sets[i]
// eliminates the i-th base vertex, realizing the second identity of
// Lemma 4.
func Pseudosphere(base topology.Simplex, sets [][]string) (*topology.Complex, error) {
	if len(sets) != len(base) {
		return nil, fmt.Errorf("core: %d value sets for a base simplex with %d vertices", len(sets), len(base))
	}
	// Keep only positions with nonempty value sets (Lemma 4, identity 2).
	var (
		verts []topology.Vertex
		vals  [][]string
	)
	for i, u := range sets {
		if len(u) == 0 {
			continue
		}
		verts = append(verts, base[i])
		vals = append(vals, dedupSorted(u))
	}
	c := topology.NewComplex()
	if len(verts) == 0 {
		return c, nil
	}
	// Odometer over the product of the value sets; each combination is a
	// facet.
	idx := make([]int, len(verts))
	for {
		facet := make([]topology.Vertex, len(verts))
		for i, b := range verts {
			facet[i] = VertexFor(b, vals[i][idx[i]])
		}
		s, err := topology.NewSimplex(facet...)
		if err != nil {
			return nil, fmt.Errorf("core: pseudosphere facet: %w", err)
		}
		c.Add(s)
		j := len(idx) - 1
		for j >= 0 {
			idx[j]++
			if idx[j] < len(vals[j]) {
				break
			}
			idx[j] = 0
			j--
		}
		if j < 0 {
			break
		}
	}
	return c, nil
}

// Uniform constructs psi(S; U) with the same value set at every vertex
// (the paper's shorthand).
func Uniform(base topology.Simplex, set []string) (*topology.Complex, error) {
	sets := make([][]string, len(base))
	for i := range sets {
		sets[i] = set
	}
	return Pseudosphere(base, sets)
}

// ProcessSimplex returns the bare n-simplex whose vertices are labeled with
// the process ids 0..n and empty labels: the paper's P^n. The vertices are
// constructed in ascending process-id order, so the slice is a valid
// chromatic simplex by construction.
func ProcessSimplex(n int) topology.Simplex {
	vs := make(topology.Simplex, n+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i}
	}
	return vs
}

// LabeledSimplex returns the m-simplex in which process i holds the input
// label 'a'+i: the one input labeling every command, experiment and
// service endpoint builds over, so their hashes and cache keys agree.
func LabeledSimplex(m int) topology.Simplex {
	vs := make(topology.Simplex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return vs
}

// InputComplex returns the input complex of k-set agreement with n+1
// processes and value set values: the pseudosphere psi(P^n; V) (Section 5).
func InputComplex(n int, values []string) (*topology.Complex, error) {
	return Uniform(ProcessSimplex(n), values)
}

// InputFacets enumerates the facets of the input complex psi(P^n; values):
// every assignment of a value to each of the n+1 processes.
func InputFacets(n int, values []string) []topology.Simplex {
	vals := dedupSorted(values)
	var out []topology.Simplex
	idx := make([]int, n+1)
	if len(vals) == 0 {
		return nil
	}
	for {
		// Ascending process ids, so the slice is a valid simplex as-is.
		vs := make(topology.Simplex, n+1)
		for i := range vs {
			vs[i] = topology.Vertex{P: i, Label: vals[idx[i]]}
		}
		out = append(out, vs)
		j := n
		for j >= 0 {
			idx[j]++
			if idx[j] < len(vals) {
				break
			}
			idx[j] = 0
			j--
		}
		if j < 0 {
			break
		}
	}
	return out
}

// FacetCount returns the number of facets of psi(S; U_0...U_m): the product
// of the value-set sizes (ignoring empty sets, which are eliminated).
func FacetCount(sets [][]string) int {
	prod := 1
	for _, u := range sets {
		if len(u) == 0 {
			continue
		}
		prod *= len(dedupSorted(u))
	}
	return prod
}

// ExpectedSize returns the total number of nonempty simplexes of
// psi(S; U_0...U_m): the product of (|U_i|+1) minus one (each base vertex
// independently contributes a value or is omitted).
func ExpectedSize(sets [][]string) int {
	prod := 1
	for _, u := range sets {
		prod *= len(dedupSorted(u)) + 1
	}
	return prod - 1
}

// IntersectSets returns the per-position intersections U_i ∩ V_i, the
// right-hand side of Lemma 4's third identity.
func IntersectSets(a, b [][]string) [][]string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		inB := make(map[string]bool, len(b[i]))
		for _, v := range b[i] {
			inB[v] = true
		}
		for _, v := range a[i] {
			if inB[v] {
				out[i] = append(out[i], v)
			}
		}
		out[i] = dedupSorted(out[i])
	}
	return out
}

// SubsetsAtLeast returns the canonical encodings of all subsets of ids with
// size at least minSize, sorted. Used for the label sets of Lemma 11
// (2^U_{>=k} in the paper's notation). Each subset is encoded by
// EncodeIDSet.
func SubsetsAtLeast(ids []int, minSize int) []string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var out []string
	n := len(sorted)
	for mask := 0; mask < 1<<n; mask++ {
		var subset []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, sorted[i])
			}
		}
		if len(subset) >= minSize {
			out = append(out, EncodeIDSet(subset))
		}
	}
	sort.Strings(out)
	return out
}

// EncodeIDSet canonically encodes a set of process ids, e.g. {2,0,3} ->
// "{0,2,3}". The empty set encodes as "{}".
func EncodeIDSet(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, p := range sorted {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func dedupSorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	w := 0
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}
