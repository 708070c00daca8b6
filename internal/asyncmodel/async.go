// Package asyncmodel implements Section 6 of the paper: the round-based
// asynchronous protocol complex. In each round every participating process
// sends its state to all others and receives at least n-f+1 of the
// messages sent in that round (its own included) — the most it can count
// on when up to f processes may crash. The one-round complex is a single
// pseudosphere (Lemma 11); the r-round complex is built by inductively
// applying the one-round construction to each simplex of the previous
// round; it is (m-(n-f)-1)-connected (Lemma 12), which yields the
// impossibility of f-resilient k-set agreement for k <= f (Corollary 13).
package asyncmodel

import (
	"fmt"
	"math/bits"

	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Params fixes the model: n+1 processes in the whole system and at most f
// crash failures. n and f are global: when the construction recurses into
// executions with fewer participants, the delivery threshold n-f+1 is
// unchanged (Section 6).
type Params struct {
	N int // dimension of the full process simplex; n+1 processes total
	F int // maximum number of crash failures
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N < 0 {
		return fmt.Errorf("asyncmodel: n must be nonnegative, got %d", p.N)
	}
	if p.F < 0 || p.F > p.N+1 {
		return fmt.Errorf("asyncmodel: f must be in [0, n+1], got f=%d with n=%d", p.F, p.N)
	}
	return nil
}

// DegenerateInput reports the Section 6 convention that the round
// complex over an m-dimensional input face is empty: with fewer than
// n-f+1 participants, no process can collect the n-f+1 messages
// (including its own) it must wait for, so P(S^m) is empty for m < n-f.
// The operator applies it, and the model registry's count is 0 there
// (internal/modelspec), so no serving layer needs a per-model check.
func (p Params) DegenerateInput(m int) bool { return m < p.N-p.F }

// oneRoundOptions precomputes, for every participant, the next-round view
// produced by each admissible heard set (itself plus at least n-f others).
// Each heard set is built and encoded once and shared by every member
// that can receive it; the facet odometer only composes precomputed
// options. A participant's options run over the subsets of the others in
// ascending bitmask order. Returns nil when the input has too few
// participants.
func oneRoundOptions(cur []*views.View, p Params) [][]pc.Option {
	m := len(cur) - 1
	if p.DegenerateInput(m) {
		return nil
	}
	hs := views.NewHeardSets(cur)
	opts := make([][]pc.Option, len(cur))
	for i := range cur {
		// others is a mask over the m other participants; spread it over
		// cur's positions around i.
		for others := uint64(0); others < 1<<m; others++ {
			if bits.OnesCount64(others) < p.N-p.F {
				continue
			}
			low := others & (1<<i - 1)
			mask := low | (others-low)<<1 | 1<<i
			opts[i] = append(opts[i], pc.NewOption(hs.Of(mask).View(cur[i].P)))
		}
	}
	return opts
}

// Lemma11Pseudosphere builds the abstract pseudosphere of Lemma 11:
// psi(S^n; 2^{P-{P_0}}_{>= n-f}, ..., 2^{P-{P_n}}_{>= n-f}), whose vertex
// labels are canonical encodings of the heard-from sets (excluding the
// process itself).
func Lemma11Pseudosphere(input topology.Simplex, p Params) (*topology.Complex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ids := input.IDs()
	if len(ids)-1 < p.N-p.F {
		return topology.NewComplex(), nil
	}
	sets := make([][]string, len(input))
	for i, v := range input {
		others := make([]int, 0, len(ids)-1)
		for _, q := range ids {
			if q != v.P {
				others = append(others, q)
			}
		}
		sets[i] = core.SubsetsAtLeast(others, p.N-p.F)
	}
	return core.Pseudosphere(input, sets)
}

// Lemma11Map returns the explicit vertex isomorphism L of Lemma 11 from
// the enumerated one-round complex onto the abstract pseudosphere:
// L(P_i, M) = (s_i, ids(M) - {P_i}).
func Lemma11Map(oneRound *pc.Result, input topology.Simplex) (topology.VertexMap, error) {
	m := make(topology.VertexMap, len(oneRound.Views))
	for vert, view := range oneRound.Views {
		heard := view.HeardIDs()
		others := make([]int, 0, len(heard))
		for _, q := range heard {
			if q != vert.P {
				others = append(others, q)
			}
		}
		label, ok := input.LabelOf(vert.P)
		if !ok {
			return nil, fmt.Errorf("asyncmodel: vertex %v has no input vertex", vert)
		}
		base := topology.Vertex{P: vert.P, Label: label}
		m[vert] = core.VertexFor(base, core.EncodeIDSet(others))
	}
	return m, nil
}
