package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/similarity"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// E14IISComparison makes the paper's Section 6 remark concrete: its
// round-based asynchronous executions "look something like a
// message-passing analog of the iterated immediate snapshot model"
// [BG97]. Both one-round complexes are built; the message-passing round
// is a single pseudosphere while the IIS round is the standard chromatic
// subdivision (Fubini-many facets), yet both are highly connected, both
// obstruct wait-free consensus, and both admit a similarity chain from
// the all-0 to the all-1 execution.
func E14IISComparison(ctx context.Context) (*Table, error) {
	t := newTable("E14", "async message-passing round vs iterated immediate snapshot",
		"Section 6 (comparison with [BG97]); Section 1 (similarity)",
		"quantity", "expected", "measured")

	input := labeledInput(2)

	// Facet counts: pseudosphere product vs Fubini number.
	mp, err := build(ctx, asyncmodel.Params{N: 2, F: 2}.Operator(), input, 1)
	if err != nil {
		return nil, err
	}
	mpFacets := mp.Complex.FacetCount()
	t.addRow(mpFacets == 64, "message-passing facets (4^3 heard-set products)", "64", itoa(mpFacets))

	is, err := build(ctx, iis.Operator(), input, 1)
	if err != nil {
		return nil, err
	}
	isFacets := is.Complex.FacetCount()
	t.addRow(isFacets == iis.FubiniNumber(3), "IIS facets (ordered partitions, Fubini)", "13", itoa(isFacets))

	// Connectivity: both single-input one-round complexes are highly
	// connected (the IIS round is even contractible: it subdivides the
	// input simplex).
	mpConn, err := conn.IsKConnectedCtx(ctx, mp.Complex, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(mpConn, "message-passing round 1-connected (Lemma 12, f=n)", "yes", boolStr(mpConn))
	isBetti, err := conn.ReducedBettiZ2Ctx(ctx, is.Complex)
	if err != nil {
		return nil, err
	}
	contractible := true
	for _, b := range isBetti {
		if b != 0 {
			contractible = false
		}
	}
	t.addRow(contractible, "IIS round contractible (subdivision)", "yes", boolStr(contractible))

	// Impossibility agreement: neither model's one-round wait-free
	// complex admits a consensus map over binary inputs (two processes).
	mpIn, err := buildOverInputs(ctx, asyncmodel.Params{N: 1, F: 1}.Operator(), 1, binary, 1)
	if err != nil {
		return nil, err
	}
	_, mpFound, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(mpIn.Complex, mpIn.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	isIn, err := buildOverInputs(ctx, iis.Operator(), 1, binary, 1)
	if err != nil {
		return nil, err
	}
	_, isFound, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(isIn.Complex, isIn.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(!mpFound && !isFound, "wait-free consensus impossible in both",
		"no decision maps", fmt.Sprintf("mp=%s iis=%s", boolStr(!mpFound), boolStr(!isFound)))

	// Similarity chains exist in both (the 1-dimensional reading).
	for _, c := range []struct {
		name string
		res  *topology.Complex
	}{
		{"message-passing", mpIn.Complex},
		{"IIS", isIn.Complex},
	} {
		g, err := similarity.NewGraph(c.res, 1)
		if err != nil {
			return nil, err
		}
		t.addRow(g.Connected(), c.name+" similarity graph connected", "yes", boolStr(g.Connected()))
	}
	return t, nil
}
