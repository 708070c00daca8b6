package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
)

// E15Scaling sweeps the construction envelope and checks the measured
// facet counts of every one-round complex against their closed forms:
//
//   - asynchronous: each of the n+1 processes independently picks a
//     heard-set of size >= n-f among the n others, so facets number
//     (sum_{s >= n-f} C(n,s))^(n+1) (the pseudosphere product, Lemma 11);
//   - synchronous, per failure set K: each of the n+1-|K| survivors
//     independently picks a subset of K, so (2^|K|)^(n+1-|K|) (Lemma 14);
//   - semi-synchronous, per (K, F): each survivor picks one of 2 last
//     microrounds per failing process, so (2^|K|)^(n+1-|K|) (Lemma 19);
//   - iterated immediate snapshot: ordered set partitions, the Fubini
//     number of n+1.
//
// The sweep doubles as the repository's workload generator: the same
// parameterizations back the benchmarks.
func E15Scaling(ctx context.Context) (*Table, error) {
	t := newTable("E15", "construction scaling across the parameter envelope",
		"Lemmas 11, 14, 19 facet combinatorics; [BG97] Fubini counts",
		"construction", "parameters", "closed form", "measured")

	// Asynchronous sweep. The interned core and the sharded constructor
	// push the feasible envelope to n=4: the f=4 instance (a 16^5-facet
	// pseudosphere, 1.4M simplexes) was out of reach for the string-keyed
	// recursive builder and sits behind the -deep flag.
	params := []asyncmodel.Params{
		{N: 2, F: 1}, {N: 2, F: 2}, {N: 3, F: 1}, {N: 3, F: 2}, {N: 3, F: 3},
		{N: 4, F: 2},
	}
	if deepScaling {
		params = append(params, asyncmodel.Params{N: 4, F: 3}, asyncmodel.Params{N: 4, F: 4})
	}
	for _, p := range params {
		res, err := build(ctx, p.Operator(), core.LabeledSimplex(p.N), 1)
		if err != nil {
			return nil, err
		}
		per := 0
		for s := p.N - p.F; s <= p.N; s++ {
			per += binomial(p.N, s)
		}
		want := pow(per, p.N+1)
		got := res.Complex.FacetCount()
		t.addRow(got == want, "A^1 (Lemma 11)",
			fmt.Sprintf("n=%d f=%d", p.N, p.F), itoa(want), itoa(got))
	}

	// Synchronous per-failure-set pseudospheres.
	for _, c := range []struct {
		n    int
		fail []int
	}{
		{2, []int{0}}, {3, []int{1}}, {3, []int{0, 2}}, {4, []int{1, 3}},
	} {
		res, err := syncmodel.OneRoundExactly(core.LabeledSimplex(c.n), c.fail)
		if err != nil {
			return nil, err
		}
		want := pow(1<<len(c.fail), c.n+1-len(c.fail))
		got := res.Complex.FacetCount()
		t.addRow(got == want, "S^1_K (Lemma 14)",
			fmt.Sprintf("n=%d K=%v", c.n, c.fail), itoa(want), itoa(got))
	}

	// Semi-synchronous per-pattern pseudospheres.
	p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2}
	for _, c := range []struct {
		n    int
		fail []int
	}{
		{2, []int{0}}, {2, []int{0, 1}}, {3, []int{2}},
	} {
		f := make(semisync.FailurePattern, len(c.fail))
		for _, q := range c.fail {
			f[q] = 1
		}
		res, err := semisync.OneRoundPattern(core.LabeledSimplex(c.n), c.fail, f, p, -1)
		if err != nil {
			return nil, err
		}
		want := pow(1<<len(c.fail), c.n+1-len(c.fail))
		got := res.Complex.FacetCount()
		t.addRow(got == want, "M^1_{K,F} (Lemma 19)",
			fmt.Sprintf("n=%d K=%v", c.n, c.fail), itoa(want), itoa(got))
	}

	// IIS Fubini counts.
	for n := 1; n <= 4; n++ {
		res, err := build(ctx, iis.Operator(), core.LabeledSimplex(n), 1)
		if err != nil {
			return nil, err
		}
		want := iis.FubiniNumber(n + 1)
		got := res.Complex.FacetCount()
		t.addRow(got == want, "IIS^1 (ordered partitions)",
			fmt.Sprintf("n=%d", n), itoa(want), itoa(got))
	}
	return t, nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - i + 1) / i
	}
	return c
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
