// Package syncmodel implements Section 7 of the paper: the synchronous
// protocol complex. Computation proceeds in lockstep rounds; in each round
// at most k processes crash. A process that crashes in a round may have
// delivered its round message to an arbitrary subset of the survivors, so
// the complex of one-round executions in which exactly the set K fails is
// the pseudosphere psi(S\K; 2^K) (Lemma 14): each survivor is
// independently labeled with the subset of K it heard from. The one-round
// complex S^1 is the union of these pseudospheres over all K with |K| <= k;
// their pairwise-prefix intersections are again unions of pseudospheres
// (Lemma 15), giving (m-(n-k)-1)-connectivity when n >= 2k (Lemma 16) and,
// iterated, when n >= rk+k (Lemma 17). Connectivity yields the tight round
// lower bound for synchronous k-set agreement (Theorem 18).
package syncmodel

import (
	"fmt"
	"sort"

	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Params fixes the failure structure: at most PerRound crashes in any
// single round (the paper's k) and at most Total crashes over the whole
// execution (the paper's f).
type Params struct {
	PerRound int // k: maximum crashes per round
	Total    int // f: maximum crashes overall
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.PerRound < 0 {
		return fmt.Errorf("syncmodel: per-round failure bound must be nonnegative, got %d", p.PerRound)
	}
	if p.Total < 0 {
		return fmt.Errorf("syncmodel: total failure bound must be nonnegative, got %d", p.Total)
	}
	return nil
}

// OneRoundExactly returns S^1_K(S): the complex of one-round executions
// starting from S in which exactly the processes in fail crash. Every
// survivor hears from every survivor (itself included) and independently
// from an arbitrary subset of fail. Failing processes contribute no
// vertices.
func OneRoundExactly(input topology.Simplex, fail []int) (*pc.Result, error) {
	res := pc.NewResult()
	if _, err := appendOneRoundExactly(res, pc.InputViews(input), fail, -1); err != nil {
		return nil, err
	}
	return res, nil
}

// OneRoundFullyHeard is OneRoundExactly restricted to executions in which
// every survivor hears from the failing process heardByAll. Under the
// Lemma 14 labeling (a survivor is labeled with the subset K - ids(M) of
// failing processes it did NOT hear), these executions form the
// pseudosphere psi(S\K; 2^{K-{P}}) appearing on the right-hand side of
// Lemma 15.
func OneRoundFullyHeard(input topology.Simplex, fail []int, heardByAll int) (*pc.Result, error) {
	res := pc.NewResult()
	if _, err := appendOneRoundExactly(res, pc.InputViews(input), fail, heardByAll); err != nil {
		return nil, err
	}
	return res, nil
}

// oneRoundExactlyOptions precomputes each survivor's admissible next views
// for the failure set fail: every survivor hears all survivors (plus
// forced, if set) and independently one subset of the remaining failing
// processes. Each heard set comes from hs, built over cur, so it is
// built and encoded once and shared by every survivor, and by every
// failure set that reaches it through the same hs; the options are the
// (survivor, subset) views. Returns nil options when no process survives.
func oneRoundExactlyOptions(hs *views.HeardSets, cur []*views.View, fail []int, forced int) ([][]pc.Option, error) {
	pos := make(map[int]int, len(cur)) // process id -> position in cur
	for i, v := range cur {
		pos[v.P] = i
	}
	var failMask uint64
	for _, q := range fail {
		i, ok := pos[q]
		if !ok {
			return nil, fmt.Errorf("syncmodel: failing process %d is not a participant", q)
		}
		failMask |= 1 << i
	}
	base := ^failMask & (1<<len(cur) - 1) // the survivors
	if forced >= 0 {
		i, ok := pos[forced]
		if !ok || failMask&(1<<i) == 0 {
			return nil, fmt.Errorf("syncmodel: forced process %d is not failing", forced)
		}
		base |= 1 << i
	}
	var survivors []int // process ids
	for i, v := range cur {
		if failMask&(1<<i) == 0 {
			survivors = append(survivors, v.P)
		}
	}
	if len(survivors) == 0 {
		return nil, nil
	}
	optional := make([]int, 0, len(fail))
	for _, q := range fail {
		if q != forced {
			optional = append(optional, q)
		}
	}
	sort.Ints(optional)

	// One heard-set mask per subset of optional, in ascending subset
	// index order: bit b of the index picks optional[b].
	masks := make([]uint64, 1<<len(optional))
	for sub := range masks {
		masks[sub] = base
		for b, q := range optional {
			if sub&(1<<b) != 0 {
				masks[sub] |= 1 << pos[q]
			}
		}
	}
	opts := make([][]pc.Option, len(survivors))
	for i := range opts {
		opts[i] = make([]pc.Option, len(masks))
	}
	for si, mask := range masks {
		h := hs.Of(mask)
		for i, p := range survivors {
			opts[i][si] = pc.NewOption(h.View(p))
		}
	}
	return opts, nil
}

// appendOneRoundExactly enumerates the one-round executions from cur in
// which exactly fail crashes; forced >= 0 additionally requires that every
// survivor hears from the failing process forced. Returns the facets as
// survivor view lists.
func appendOneRoundExactly(res *pc.Result, cur []*views.View, fail []int, forced int) ([][]*views.View, error) {
	opts, err := oneRoundExactlyOptions(views.NewHeardSets(cur), cur, fail, forced)
	if err != nil || opts == nil {
		return nil, err
	}
	var facets [][]*views.View
	idx := make([]int, len(opts))
	verts := make([]topology.Vertex, len(opts))
	for {
		facet := make([]*views.View, len(opts))
		pc.FillFacet(facet, verts, opts, idx)
		res.AddFacetVertices(verts, facet)
		facets = append(facets, facet)
		if !pc.Advance(idx, opts) {
			break
		}
	}
	return facets, nil
}

// FailureSets enumerates the subsets of ids of size at most maxSize in the
// paper's order: by cardinality, then lexicographically.
func FailureSets(ids []int, maxSize int) [][]int {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var out [][]int
	n := len(sorted)
	if maxSize > n {
		maxSize = n
	}
	for size := 0; size <= maxSize; size++ {
		var acc []int
		var rec func(start int)
		rec = func(start int) {
			if len(acc) == size {
				out = append(out, append([]int(nil), acc...))
				return
			}
			for i := start; i < n; i++ {
				acc = append(acc, sorted[i])
				rec(i + 1)
				acc = acc[:len(acc)-1]
			}
		}
		rec(0)
	}
	return out
}

// Lemma14Pseudosphere builds the abstract pseudosphere psi(S\K; 2^K) of
// Lemma 14, with vertex labels encoding subsets of K.
func Lemma14Pseudosphere(input topology.Simplex, fail []int) (*topology.Complex, error) {
	failSet := make(map[int]bool, len(fail))
	for _, q := range fail {
		failSet[q] = true
	}
	base := input.WithoutIDs(failSet)
	sets := make([][]string, len(base))
	subsets := core.SubsetsAtLeast(fail, 0)
	for i := range sets {
		sets[i] = subsets
	}
	return core.Pseudosphere(base, sets)
}

// Lemma14Map returns the explicit vertex isomorphism L of Lemma 14 from
// the enumerated S^1_K(S) onto psi(S\K; 2^K): L(P_i, M) = (s_i, K-ids(M)).
func Lemma14Map(oneRound *pc.Result, input topology.Simplex, fail []int) (topology.VertexMap, error) {
	failSet := make(map[int]bool, len(fail))
	for _, q := range fail {
		failSet[q] = true
	}
	m := make(topology.VertexMap, len(oneRound.Views))
	for vert, view := range oneRound.Views {
		heard := make(map[int]bool)
		for _, q := range view.HeardIDs() {
			heard[q] = true
		}
		var missing []int
		for _, q := range fail {
			if !heard[q] {
				missing = append(missing, q)
			}
		}
		label, ok := input.LabelOf(vert.P)
		if !ok {
			return nil, fmt.Errorf("syncmodel: vertex %v has no input vertex", vert)
		}
		base := topology.Vertex{P: vert.P, Label: label}
		m[vert] = core.VertexFor(base, core.EncodeIDSet(missing))
	}
	return m, nil
}

// Lemma15RHS builds the right-hand side of Lemma 15 for the failure set
// K_t = fail: the union over P in K_t of the executions of S^1_{K_t} in
// which every survivor hears P (the pseudospheres psi(S\K_t; 2^{K_t-{P}})
// under the Lemma 14 labeling). Comparing it with the concrete
// intersection of the prefix union and S^1_{K_t} verifies the lemma.
func Lemma15RHS(input topology.Simplex, fail []int) (*pc.Result, error) {
	res := pc.NewResult()
	for _, p := range fail {
		sub, err := OneRoundFullyHeard(input, fail, p)
		if err != nil {
			return nil, err
		}
		res.Merge(sub)
	}
	return res, nil
}
