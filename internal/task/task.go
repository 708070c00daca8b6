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
	"sort"
	"sync"
	"sync/atomic"

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

// Validate checks internal consistency: every vertex of the complex has a
// nonempty allowed set.
func (a *Annotated) Validate() error {
	for _, v := range a.Complex.Vertices() {
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
// means unlimited.
//
// For k = 1 (consensus) an exact polynomial-time procedure is used: every
// simplex must be monochromatic, so the decision value is constant on each
// connected component of the 1-skeleton and a map exists iff every
// component's allowed sets have a common value. It ignores ctx, workers
// and nodeLimit and always runs to completion.
//
// For k >= 2 an exact backtracking search decides, on up to workers
// goroutines (at least one) sharing the node budget. The map it returns
// is the same at every worker count. A success wins even if the budget
// ran out elsewhere, since the map is a valid certificate; ErrSearchLimit
// means no map was found within the budget. The search checks ctx at
// every node, and after ctx fires the call returns ctx.Err(), unless a map
// had already been found, which is returned.
func FindDecisionParallelCtx(ctx context.Context, a *Annotated, k int, nodeLimit int64, workers int) (DecisionMap, bool, error) {
	if err := a.Validate(); err != nil {
		return nil, false, err
	}
	if a.Complex.IsEmpty() {
		return DecisionMap{}, true, nil
	}
	if k <= 0 {
		return nil, false, fmt.Errorf("task: k must be positive, got %d", k)
	}
	if k == 1 {
		dm, ok := findConsensus(a)
		return dm, ok, nil
	}
	return newSearch(a, k).run(ctx, nodeLimit, workers)
}

// findConsensus implements the exact k=1 procedure.
func findConsensus(a *Annotated) (DecisionMap, bool) {
	verts := a.Complex.Vertices()
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

// search is the immutable setup of the backtracking search: the vertex and
// facet index structures, per-vertex domains, and the variable order. It is
// built once and shared read-only by every search branch.
type search struct {
	verts      []topology.Vertex
	facetOf    [][]int // vertex -> facet indices
	facetVerts [][]int // facet -> vertex indices
	domains    [][]string
	order      []int
	k          int
}

func newSearch(a *Annotated, k int) *search {
	verts := a.Complex.Vertices()
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
			facetOf[vIdx[v]] = append(facetOf[vIdx[v]], fi)
		}
		facetVerts[fi] = fv
	}
	domains := make([][]string, len(verts))
	for i, v := range verts {
		domains[i] = append([]string(nil), a.Allowed[v]...)
		sort.Strings(domains[i])
	}
	return &search{
		verts:      verts,
		facetOf:    facetOf,
		facetVerts: facetVerts,
		domains:    domains,
		order:      searchOrder(facetVerts, len(verts)),
		k:          k,
	}
}

// run is the backtracking search with forward checking: when a facet
// reaches k distinct assigned values, the domains of its unassigned
// vertices shrink to those values. Each value of the first variable's
// domain is a branch. Up to workers claim loops, one of them on the
// caller's goroutine, take the branches in index order, each with private
// assignment state. A branch aborts at its next node once ctx fires or a
// lower branch has succeeded, so the lowest successful branch supplies the
// map whatever the scheduling, and one loop visits the nodes in the
// serial order.
func (s *search) run(ctx context.Context, nodeLimit int64, workers int) (DecisionMap, bool, error) {
	var cancelled atomic.Bool
	stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	defer stop()
	var budget *atomic.Int64
	if nodeLimit > 0 {
		budget = new(atomic.Int64)
		budget.Store(nodeLimit)
	}
	dom := s.domains[s.order[0]]
	dms := make([]DecisionMap, len(dom)) // the map of each branch that succeeded
	var limited atomic.Bool
	var best, next atomic.Int64 // best: the lowest branch that succeeded
	best.Store(int64(len(dom)))
	claim := func() {
		for ctx.Err() == nil {
			bi := next.Add(1) - 1
			if bi >= int64(len(dom)) || best.Load() < bi {
				return
			}
			b := &branchRun{
				s:        s,
				assign:   make([]string, len(s.verts)),
				assigned: make([]bool, len(s.verts)),
				budget:   budget,
				abort:    func() bool { return cancelled.Load() || best.Load() < bi },
			}
			ok, err := b.try(0, dom[bi])
			if err == ErrSearchLimit {
				limited.Store(true)
			}
			if !ok {
				continue
			}
			dms[bi] = b.decisionMap()
			for { // lower best to bi unless a lower branch has won
				cur := best.Load()
				if cur < bi || best.CompareAndSwap(cur, bi) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(max(workers, 1), len(dom)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	for _, dm := range dms {
		if dm != nil {
			return dm, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if limited.Load() {
		return nil, false, ErrSearchLimit
	}
	return nil, false, nil
}

// errAborted signals a branch cut off because ctx fired or a lower branch
// already succeeded; run never returns it.
var errAborted = errors.New("task: search branch aborted")

// branchRun is one search branch's mutable state: its own assignment
// vectors, the shared node budget (nil = unlimited), and the abort probe
// checked at every node.
type branchRun struct {
	s        *search
	assign   []string
	assigned []bool
	budget   *atomic.Int64
	abort    func() bool
}

// rec tries each value of the pos-th variable in turn.
func (b *branchRun) rec(pos int) (bool, error) {
	if pos == len(b.s.order) {
		return true, nil
	}
	for _, val := range b.s.domains[b.s.order[pos]] {
		if ok, err := b.try(pos, val); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// try is one node of the search: it assigns val to the pos-th variable
// and, if that stays consistent, searches the variables after it.
func (b *branchRun) try(pos int, val string) (bool, error) {
	if b.budget != nil && b.budget.Add(-1) < 0 {
		return false, ErrSearchLimit
	}
	if b.abort() {
		return false, errAborted
	}
	vi := b.s.order[pos]
	b.assign[vi] = val
	b.assigned[vi] = true
	if consistent(vi, b.s.facetOf, b.s.facetVerts, b.assign, b.assigned, b.s.domains, b.s.k) {
		if ok, err := b.rec(pos + 1); ok || err != nil {
			return ok, err
		}
	}
	b.assigned[vi] = false
	return false, nil
}

// decisionMap materializes the branch's assignment.
func (b *branchRun) decisionMap() DecisionMap {
	dm := make(DecisionMap, len(b.s.verts))
	for i, v := range b.s.verts {
		dm[v] = b.assign[i]
	}
	return dm
}

// consistent checks that every facet touching vertex vi can still be
// completed: assigned values do not exceed k distinct, and if exactly k are
// assigned, every unassigned vertex in the facet has one of them in its
// domain.
func consistent(vi int, facetOf [][]int, facetVerts [][]int, assign []string, assigned []bool, domains [][]string, k int) bool {
	for _, fi := range facetOf[vi] {
		seen := make(map[string]bool, k+1)
		for _, wj := range facetVerts[fi] {
			if assigned[wj] {
				seen[assign[wj]] = true
			}
		}
		if len(seen) > k {
			return false
		}
		if len(seen) == k {
			for _, wj := range facetVerts[fi] {
				if assigned[wj] {
					continue
				}
				ok := false
				for _, val := range domains[wj] {
					if seen[val] {
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
