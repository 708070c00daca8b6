package semisync

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// EncodeMuVector canonically encodes a view vector: the microround of the
// last message received from each participant (0 = none), e.g.
// "0=3,1=0,2=2".
func EncodeMuVector(ids []int, mu map[int]int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, q := range sorted {
		parts[i] = fmt.Sprintf("%d=%d", q, mu[q])
	}
	return strings.Join(parts, ",")
}

// ViewSet returns [F] (or [F arrow force] when force >= 0): the canonical
// encodings of the view vectors consistent with failure pattern f over the
// participants ids, per Section 8. Nonfaulty senders appear at microround
// p; a failing sender P_j appears at f[P_j]-1 or f[P_j] (exactly f[P_j]
// when j == force).
func ViewSet(ids []int, fail []int, f FailurePattern, micro int, force int) []string {
	failSet := make(map[int]bool, len(fail))
	for _, q := range fail {
		failSet[q] = true
	}
	sortedFail := append([]int(nil), fail...)
	sort.Ints(sortedFail)
	perFail := make([][]int, len(sortedFail))
	for i, q := range sortedFail {
		if q == force {
			perFail[i] = []int{f[q]}
		} else {
			perFail[i] = []int{f[q] - 1, f[q]}
		}
	}
	var out []string
	for _, choice := range cartesianInts(perFail) {
		mu := make(map[int]int, len(ids))
		for _, q := range ids {
			if !failSet[q] {
				mu[q] = micro
			}
		}
		for i, q := range sortedFail {
			mu[q] = choice[i]
		}
		out = append(out, EncodeMuVector(ids, mu))
	}
	sort.Strings(out)
	return out
}

// Lemma19Pseudosphere builds the abstract pseudosphere psi(S\K; [F]) of
// Lemma 19, with vertex labels encoding complete view vectors.
func Lemma19Pseudosphere(input topology.Simplex, fail []int, f FailurePattern, p Params) (*topology.Complex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(fail, p.Micro()); err != nil {
		return nil, err
	}
	failSet := make(map[int]bool, len(fail))
	for _, q := range fail {
		failSet[q] = true
	}
	base := input.WithoutIDs(failSet)
	vs := ViewSet(input.IDs(), fail, f, p.Micro(), -1)
	sets := make([][]string, len(base))
	for i := range sets {
		sets[i] = vs
	}
	return core.Pseudosphere(base, sets)
}

// Lemma19Map returns the explicit vertex isomorphism of Lemma 19 from the
// enumerated M^1_{K,F}(S) onto psi(S\K; [F]): each vertex maps to its view
// vector (the microround of the last message from each participant).
func Lemma19Map(oneRound *pc.Result, input topology.Simplex) (topology.VertexMap, error) {
	ids := input.IDs()
	m := make(topology.VertexMap, len(oneRound.Views))
	for vert, view := range oneRound.Views {
		mu := make(map[int]int, len(ids))
		for _, q := range ids {
			if ms, ok := view.Note(q); ok {
				n, err := strconv.Atoi(ms)
				if err != nil {
					return nil, fmt.Errorf("semisync: bad microround annotation %q on %v", ms, vert)
				}
				mu[q] = n
			}
		}
		label, ok := input.LabelOf(vert.P)
		if !ok {
			return nil, fmt.Errorf("semisync: vertex %v has no input vertex", vert)
		}
		base := topology.Vertex{P: vert.P, Label: label}
		m[vert] = core.VertexFor(base, EncodeMuVector(ids, mu))
	}
	return m, nil
}

// Lemma20RHS builds the right-hand side of Lemma 20 for the pseudosphere
// psi(S\K_t; [F_t]): the union over j in K_t of psi(S\K_t; [F_t arrow j]),
// i.e. the executions in which every survivor receives P_j's final
// microround-F(P_j) message.
func Lemma20RHS(input topology.Simplex, fail []int, f FailurePattern, p Params) (*pc.Result, error) {
	res := pc.NewResult()
	for _, j := range fail {
		sub, err := OneRoundPattern(input, fail, f, p, j)
		if err != nil {
			return nil, err
		}
		res.Merge(sub)
	}
	return res, nil
}

// IndexedPattern is one (K, F) pair indexing a pseudosphere of M^1.
type IndexedPattern struct {
	Fail    []int
	Pattern FailurePattern
}

// OrderedPseudospheres enumerates the (K, F) pairs indexing the
// pseudospheres of M^1 in the paper's order: failure sets by cardinality
// then lexicographically, and for each set the patterns in reverse
// lexicographic order (all-at-p first, all-at-1 last).
func OrderedPseudospheres(ids []int, p Params) []IndexedPattern {
	maxFail := min(p.PerRound, p.Total)
	var out []IndexedPattern
	for _, fail := range syncmodel.FailureSets(ids, maxFail) {
		for _, f := range Patterns(fail, p.Micro()) {
			out = append(out, IndexedPattern{Fail: fail, Pattern: f})
		}
	}
	return out
}
