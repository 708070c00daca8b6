package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/core"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/task"
)

// E13FResilientSemiSync explores the paper's stated future work (end of
// Section 8): extending the Corollary 22 time bound from the wait-free
// case (f = n) to the f-resilient case (f < n). The ingredients the paper
// uses all verify mechanically at small scale: the r-round f-resilient
// complexes M^r(S^m) are (m-(n-k)-1)-connected on the Corollary 10 range
// n-f <= m <= n whenever n >= (r+1)k, and the exact decision-map search
// confirms that no k-set agreement map exists on the floor(f/k)-round
// complex — the combinatorial half of the conjectured bound
// floor(f/k)*d + C*d for f-resilient executions.
func E13FResilientSemiSync(ctx context.Context) (*Table, error) {
	t := newTable("E13", "f-resilient semi-sync bound (paper's future work)",
		"Section 8, closing remark",
		"check", "instance", "holds")
	t.Notes = "exploratory: the paper conjectures the wait-free bound extends to f < n; " +
		"these are the machine-checkable ingredients at small scale, not a proof"

	// Connectivity over the Corollary 10 range for f-resilient instances.
	for _, c := range []struct {
		n, f, k, r int
	}{
		{2, 1, 1, 1},
		{3, 2, 1, 2},
		{3, 1, 1, 1},
	} {
		p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: c.k, Total: c.f}
		r := bounds.SemiSyncRoundsUsable(c.f, c.k)
		if r > c.r {
			r = c.r
		}
		allOK := true
		lo := c.n - c.f
		if lo < 0 {
			lo = 0
		}
		for m := lo; m <= c.n; m++ {
			res, err := build(ctx, p.Operator(), core.LabeledSimplex(m), r)
			if err != nil {
				return nil, err
			}
			target := m - (c.n - c.k) - 1
			ok, err := conn.IsKConnectedCtx(ctx, res.Complex, target)
			if err != nil {
				return nil, err
			}
			if !ok {
				allOK = false
			}
		}
		t.addRow(allOK,
			fmt.Sprintf("M^%d(S^m) connectivity, m=%d..%d", r, lo, c.n),
			fmt.Sprintf("n=%d f=%d k=%d", c.n, c.f, c.k), boolStr(allOK))
	}

	// Search half: no consensus map on the floor(f/k)-round f-resilient
	// complex at n=2, f=1, k=1 (so > floor(f/k) rounds, hence > d time,
	// are unavoidable even f-resiliently).
	p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}
	res, err := buildOverInputs(ctx, p.Operator(), 2, binary, 1)
	if err != nil {
		return nil, err
	}
	ann := task.AnnotateViews(res.Complex, res.Views)
	_, found, err := task.FindDecisionParallelCtx(ctx, ann, 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(!found, "no consensus map on M^{floor(f/k)}",
		"n=2 f=1 k=1, r=1", boolStr(!found))

	// The conjectured f-resilient bound values, for the record.
	for _, c := range []struct{ f, k int }{{1, 1}, {2, 1}, {3, 2}} {
		b, err := bounds.SemiSyncTimeLowerBound(c.f, c.k, 1, 2, 2)
		if err != nil {
			return nil, err
		}
		t.addRow(true, "conjectured bound floor(f/k)d+Cd",
			fmt.Sprintf("f=%d k=%d c1=1 c2=2 d=2", c.f, c.k), b.String())
	}
	return t, nil
}
