package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/bounds"
	"pseudosphere/internal/core"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// E3AsyncOneRound verifies Lemma 11 across parameters: the one-round
// asynchronous complex equals the stated pseudosphere via the explicit
// map, and its facet count matches the product formula.
func E3AsyncOneRound(ctx context.Context) (*Table, error) {
	t := newTable("E3", "async one-round complex is a pseudosphere", "Lemma 11",
		"n", "f", "facets", "simplexes", "iso to psi(S; 2^{P-Pi}_{>=n-f})")
	for _, p := range []asyncmodel.Params{
		{N: 2, F: 1}, {N: 2, F: 2}, {N: 3, F: 1}, {N: 3, F: 2}, {N: 3, F: 3},
	} {
		input := core.LabeledSimplex(p.N)
		oneRound, err := build(ctx, p.Operator(), input, 1)
		if err != nil {
			return nil, err
		}
		ps, err := asyncmodel.Lemma11Pseudosphere(input, p)
		if err != nil {
			return nil, err
		}
		m, err := asyncmodel.Lemma11Map(oneRound, input)
		if err != nil {
			return nil, err
		}
		isoErr := topology.VerifyIsomorphism(oneRound.Complex, ps, m)
		t.addRow(isoErr == nil,
			itoa(p.N), itoa(p.F),
			itoa(oneRound.Complex.FacetCount()),
			itoa(oneRound.Complex.Size()),
			boolStr(isoErr == nil))
	}
	return t, nil
}

// E4AsyncConnectivity verifies Lemma 12's connectivity table and drives
// Corollary 13 both ways: no decision map for k <= f (search agrees with
// the obstruction), and a working protocol for k = f+1.
func E4AsyncConnectivity(ctx context.Context) (*Table, error) {
	t := newTable("E4", "async connectivity and the k <= f impossibility",
		"Lemma 12, Corollary 13",
		"instance", "paper", "measured")

	// Connectivity sweep.
	for _, c := range []struct {
		p asyncmodel.Params
		m int
		r int
	}{
		{asyncmodel.Params{N: 2, F: 1}, 2, 1},
		{asyncmodel.Params{N: 2, F: 1}, 2, 2},
		{asyncmodel.Params{N: 2, F: 2}, 2, 1},
		{asyncmodel.Params{N: 3, F: 2}, 3, 1},
		{asyncmodel.Params{N: 3, F: 3}, 3, 1},
	} {
		res, err := build(ctx, c.p.Operator(), core.LabeledSimplex(c.m), c.r)
		if err != nil {
			return nil, err
		}
		target := c.m - (c.p.N - c.p.F) - 1
		ok, err := conn.IsKConnectedCtx(ctx, res.Complex, target)
		if err != nil {
			return nil, err
		}
		t.addRow(ok,
			fmt.Sprintf("A^%d(S^%d), n=%d f=%d", c.r, c.m, c.p.N, c.p.F),
			fmt.Sprintf("%d-connected", target),
			boolStr(ok))
	}

	// Impossibility side: consensus with one failure among three processes.
	p := asyncmodel.Params{N: 2, F: 1}
	res, err := buildOverInputs(ctx, p.Operator(), p.N, binary, 1)
	if err != nil {
		return nil, err
	}
	ann := task.AnnotateViews(res.Complex, res.Views)
	_, found, err := task.FindDecisionParallelCtx(ctx, ann, 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(!found && !bounds.AsyncSolvable(1, 1),
		"consensus, n=2, f=1 (k=1 <= f)", "impossible", "no decision map: "+boolStr(!found))

	// Solvable side: k = f+1 via the one-round wait protocol.
	out, err := sim.RunAsync([]string{"2", "0", "1"}, protocols.NewAsyncKSet(), nil,
		sim.NewRandomAsyncSchedule(3, 1, 11), 2)
	if err != nil {
		return nil, err
	}
	agreeErr := out.CheckKSetAgreement(2)
	t.addRow(agreeErr == nil && bounds.AsyncSolvable(2, 1),
		"2-set agreement, n=2, f=1 (k=f+1)", "solvable", "protocol run valid: "+boolStr(agreeErr == nil))
	return t, nil
}
