package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/sperner"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// E12Sperner exercises the engine behind Theorem 9: Sperner's Lemma on
// barycentric subdivisions, and agreement between the Corollary 10
// connectivity obstruction and the exact decision-map search.
func E12Sperner(ctx context.Context) (*Table, error) {
	t := newTable("E12", "Sperner engine and obstruction-vs-search agreement",
		"Theorem 9, Corollary 10",
		"check", "instance", "holds")

	// Sperner's Lemma across dimensions and depths.
	for _, c := range []struct{ dim, depth int }{
		{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 1},
	} {
		base := labeledInput(c.dim)
		sd, carrier, err := sperner.Subdivide(base, c.depth)
		if err != nil {
			return nil, err
		}
		col := sperner.FirstOwnerColoring(sd, carrier)
		count, err := sperner.VerifyLemma(base, sd, carrier, col)
		ok := err == nil && count%2 == 1
		t.addRow(ok, "odd panchromatic count",
			fmt.Sprintf("dim=%d depth=%d count=%d", c.dim, c.depth, count), boolStr(ok))
	}

	// Obstruction vs search: for the async model at n=2, the Theorem 9
	// hypothesis holds for k=1 <= f and the search finds no map; for the
	// f=0 model (no failures) the hypothesis fails and a map exists.
	p := asyncmodel.Params{N: 2, F: 1}
	build := func(u []string) *topology.Complex {
		res, err := buildOverInputs(ctx, p.Operator(), p.N, u, 1)
		if err != nil {
			return topology.NewComplex()
		}
		return res.Complex
	}
	obstructed, err := task.Theorem9Obstructed(build, binary, 1)
	if err != nil {
		return nil, err
	}
	res, err := buildOverInputs(ctx, p.Operator(), p.N, binary, 1)
	if err != nil {
		return nil, err
	}
	_, found, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(res.Complex, res.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(obstructed && !found, "obstructed => no decision map",
		"async n=2 f=1 k=1", boolStr(obstructed && !found))

	p0 := asyncmodel.Params{N: 2, F: 0}
	build0 := func(u []string) *topology.Complex {
		res, err := buildOverInputs(ctx, p0.Operator(), p0.N, u, 1)
		if err != nil {
			return topology.NewComplex()
		}
		return res.Complex
	}
	obstructed0, err := task.Theorem9Obstructed(build0, binary, 1)
	if err != nil {
		return nil, err
	}
	res0, err := buildOverInputs(ctx, p0.Operator(), p0.N, binary, 1)
	if err != nil {
		return nil, err
	}
	_, found0, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(res0.Complex, res0.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(!obstructed0 && found0, "unobstructed and solvable",
		"async n=2 f=0 k=1", boolStr(!obstructed0 && found0))
	return t, nil
}
