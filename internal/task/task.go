// Package task defines the decision tasks the paper proves bounds for —
// k-set agreement and its k=1 special case, consensus — together with the
// machinery for reasoning about their solvability on protocol complexes:
// annotated complexes (each vertex knows which decision values are valid
// for it), decision maps, an exact solvability search, and the
// Theorem 9 / Corollary 10 connectivity obstructions.
package task

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"pseudosphere/internal/topology"
)

// Annotated pairs a protocol complex with, for every vertex, the set of
// decision values that validity permits at that vertex. For
// full-information protocols this is exactly the set of input values
// visible in the vertex's view: a vertex lies in P(S) for precisely the
// input simplexes S consistent with its view, and the intersection of
// vals(S) over those S is the set of values seen.
type Annotated struct {
	Complex *topology.Complex
	Allowed map[topology.Vertex][]string
}

// validate checks that every vertex in verts, the complex's sorted vertex
// list, has a nonempty allowed set.
func (a *Annotated) validate(verts []topology.Vertex) error {
	for _, v := range verts {
		vals, ok := a.Allowed[v]
		if !ok || len(vals) == 0 {
			return fmt.Errorf("task: vertex %v has no allowed decision values", v)
		}
	}
	return nil
}

// DecisionMap assigns a decision value to every vertex of a protocol
// complex; it is the paper's map delta from Section 4.
type DecisionMap map[topology.Vertex]string

// CheckDecision verifies that dm solves k-set agreement on a: every vertex
// is assigned an allowed value (validity) and the vertices of every simplex
// carry at most k distinct values (agreement). Checking facets suffices
// since faces carry subsets of a facet's values.
func CheckDecision(a *Annotated, dm DecisionMap, k int) error {
	for _, v := range a.Complex.Vertices() {
		val, ok := dm[v]
		if !ok {
			return fmt.Errorf("task: vertex %v has no decision", v)
		}
		if !contains(a.Allowed[v], val) {
			return fmt.Errorf("task: decision %q at %v violates validity (allowed %v)", val, v, a.Allowed[v])
		}
	}
	for _, s := range a.Complex.Facets() {
		if distinctDecisions(s, dm) > k {
			return fmt.Errorf("task: simplex %v carries more than %d decision values", s, k)
		}
	}
	return nil
}

func distinctDecisions(s topology.Simplex, dm DecisionMap) int {
	seen := make(map[string]bool, len(s))
	for _, v := range s {
		seen[dm[v]] = true
	}
	return len(seen)
}

// ErrSearchLimit reports that the backtracking search exceeded its node
// budget without resolving existence.
var ErrSearchLimit = errors.New("task: decision-map search exceeded its node limit")

// FindDecisionParallelCtx searches for a k-set agreement decision map on
// a. It returns (map, true, nil) if one exists, (nil, false, nil) if
// provably none exists, and (nil, false, ErrSearchLimit) if the
// backtracking search hit nodeLimit without resolving. A nodeLimit <= 0
// means unlimited. The int argument is unused; it keeps the signature
// the bench module calls.
//
// For k = 1 (consensus) an exact polynomial-time procedure is used: every
// simplex must be monochromatic, so the decision value is constant on each
// connected component of the 1-skeleton and a map exists iff every
// component's allowed sets have a common value. It ignores ctx and
// nodeLimit and always runs to completion.
//
// For k >= 2 an exact backtracking search decides on the caller's
// goroutine. It checks ctx at every node; once ctx fires, the call
// returns ctx.Err() unless it has already found a map.
func FindDecisionParallelCtx(ctx context.Context, a *Annotated, k int, nodeLimit int64, _ int) (DecisionMap, bool, error) {
	verts := a.Complex.Vertices() // sorted once, for the check and the search
	if err := a.validate(verts); err != nil {
		return nil, false, err
	}
	if a.Complex.IsEmpty() {
		return DecisionMap{}, true, nil
	}
	if k <= 0 {
		return nil, false, fmt.Errorf("task: k must be positive, got %d", k)
	}
	if k == 1 {
		dm, ok := findConsensus(a, verts)
		return dm, ok, nil
	}
	return newSearch(a, verts, k).run(ctx, nodeLimit)
}

// findConsensus implements the exact k=1 procedure over verts, the
// complex's sorted vertex list.
func findConsensus(a *Annotated, verts []topology.Vertex) (DecisionMap, bool) {
	idx := make(map[topology.Vertex]int, len(verts))
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
	for _, e := range a.Complex.Simplices(1) {
		pa, pb := find(idx[e[0]]), find(idx[e[1]])
		parent[pa] = pb
	}
	// Intersect allowed sets per component.
	common := make(map[int]map[string]bool)
	for i, v := range verts {
		root := find(i)
		set, ok := common[root]
		if !ok {
			set = make(map[string]bool)
			for _, val := range a.Allowed[v] {
				set[val] = true
			}
			common[root] = set
			continue
		}
		next := make(map[string]bool)
		for _, val := range a.Allowed[v] {
			if set[val] {
				next[val] = true
			}
		}
		common[root] = next
	}
	dm := make(DecisionMap, len(verts))
	for i, v := range verts {
		set := common[find(i)]
		if len(set) == 0 {
			return nil, false
		}
		vals := make([]string, 0, len(set))
		for val := range set {
			vals = append(vals, val)
		}
		sort.Strings(vals)
		dm[v] = vals[0]
	}
	return dm, true
}

// search is the state of the backtracking search: the vertex and facet
// index structures, per-vertex domains and the variable order, built
// once, plus the assignment and the node count.
type search struct {
	verts      []topology.Vertex
	facetOf    [][]int   // vertex -> facet indices
	facetVerts [][]int   // facet -> vertex indices
	names      []string  // value id -> value
	domains    [][]int32 // vertex -> allowed value ids, ascending
	order      []int
	k          int

	nodes  int64
	limit  int64   // <= 0: unlimited
	assign []int32 // vertex -> value id, -1 while unassigned
	// mark[id] == gen: consistent saw value id in the facet in hand.
	mark []uint64
	gen  uint64
}

// newSearch builds the search over verts, the complex's sorted vertex
// list.
func newSearch(a *Annotated, verts []topology.Vertex, k int) *search {
	vIdx := make(map[topology.Vertex]int, len(verts))
	for i, v := range verts {
		vIdx[v] = i
	}
	facets := a.Complex.Facets()
	facetOf := make([][]int, len(verts))
	facetVerts := make([][]int, len(facets))
	for fi, f := range facets {
		fv := make([]int, len(f))
		for j, v := range f {
			fv[j] = vIdx[v]
			facetOf[fv[j]] = append(facetOf[fv[j]], fi)
		}
		facetVerts[fi] = fv
	}
	// Values get ids in sorted string order, so a domain in ascending id
	// order tries its values in string order.
	allowed := make([][]string, len(verts))
	ids := make(map[string]int32)
	var names []string
	size := 0
	for i, v := range verts {
		allowed[i] = a.Allowed[v]
		size += len(allowed[i])
		for _, val := range allowed[i] {
			if _, ok := ids[val]; !ok {
				ids[val] = 0
				names = append(names, val)
			}
		}
	}
	slices.Sort(names)
	for id, val := range names {
		ids[val] = int32(id)
	}
	flat := make([]int32, 0, size) // every domain, back to back
	domains := make([][]int32, len(verts))
	assign := make([]int32, len(verts))
	for i, vals := range allowed {
		for _, val := range vals {
			flat = append(flat, ids[val])
		}
		domains[i] = flat[len(flat)-len(vals):]
		slices.Sort(domains[i])
		assign[i] = -1
	}
	return &search{
		verts:      verts,
		facetOf:    facetOf,
		facetVerts: facetVerts,
		names:      names,
		domains:    domains,
		order:      searchOrder(facetVerts, len(verts)),
		k:          k,
		assign:     assign,
		mark:       make([]uint64, len(names)),
	}
}

// run is the backtracking search with forward checking: when a facet
// reaches k distinct assigned values, the domains of its unassigned
// vertices shrink to those values. Variables take their values in
// domain order, so the first map found is the one returned. A found map
// wins over a fired ctx, and a fired ctx over ErrSearchLimit.
func (s *search) run(ctx context.Context, nodeLimit int64) (DecisionMap, bool, error) {
	s.limit = nodeLimit
	ok, err := s.rec(ctx, 0)
	if ok {
		dm := make(DecisionMap, len(s.verts))
		for i, v := range s.verts {
			dm[v] = s.names[s.assign[i]]
		}
		return dm, true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, false, cerr
	}
	return nil, false, err
}

// rec tries each value of the pos-th variable in turn, and, for each that
// stays consistent, searches the variables after it. Every value tried is
// one node: the node past the limit returns ErrSearchLimit, and a node
// after ctx fires returns ctx.Err().
func (s *search) rec(ctx context.Context, pos int) (bool, error) {
	if pos == len(s.order) {
		return true, nil
	}
	vi := s.order[pos]
	for _, val := range s.domains[vi] {
		if s.nodes++; s.limit > 0 && s.nodes > s.limit {
			return false, ErrSearchLimit
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		s.assign[vi] = val
		if s.consistent(vi) {
			if ok, err := s.rec(ctx, pos+1); ok || err != nil {
				return ok, err
			}
		}
		s.assign[vi] = -1
	}
	return false, nil
}

// consistent checks that every facet touching vertex vi can still be
// completed: assigned values do not exceed k distinct, and if exactly k are
// assigned, every unassigned vertex in the facet has one of them in its
// domain.
func (s *search) consistent(vi int) bool {
	for _, fi := range s.facetOf[vi] {
		s.gen++
		distinct := 0
		for _, wj := range s.facetVerts[fi] {
			if val := s.assign[wj]; val >= 0 && s.mark[val] != s.gen {
				s.mark[val] = s.gen
				distinct++
			}
		}
		if distinct > s.k {
			return false
		}
		if distinct == s.k {
			for _, wj := range s.facetVerts[fi] {
				if s.assign[wj] >= 0 {
					continue
				}
				ok := false
				for _, val := range s.domains[wj] {
					if s.mark[val] == s.gen {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
	}
	return true
}

// searchOrder orders vertices facet-by-facet so that agreement constraints
// bind as early as possible.
func searchOrder(facetVerts [][]int, n int) []int {
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for _, fv := range facetVerts {
		for _, vi := range fv {
			if !seen[vi] {
				seen[vi] = true
				order = append(order, vi)
			}
		}
	}
	for vi := 0; vi < n; vi++ {
		if !seen[vi] {
			order = append(order, vi)
		}
	}
	return order
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
