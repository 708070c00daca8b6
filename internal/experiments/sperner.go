package experiments

import (
	"cmp"
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/sperner"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// E12Sperner exercises the engine behind Theorem 9: Sperner's Lemma on
// barycentric subdivisions, and agreement between the Theorem 9 and
// Corollary 10 connectivity obstructions and the exact decision-map search.
func E12Sperner(ctx context.Context) (*Table, error) {
	t := newTable("E12", "Sperner engine and obstruction-vs-search agreement",
		"Theorem 9, Corollary 10",
		"check", "instance", "holds")

	// Sperner's Lemma across dimensions and depths.
	for _, c := range []struct{ dim, depth int }{
		{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 1},
	} {
		base := core.LabeledSimplex(c.dim)
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
	obstructed, err := theorem9Over(ctx, p.Operator(), p.N, binary, 1)
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

	// Corollary 10 on A^1(S^m), 0 <= m <= n: it obstructs k=1 <= f, where
	// the search above found no map, and is silent at k=2, where the
	// search finds one over three input values.
	cor1, err := corollary10On(ctx, p.Operator(), p.N, 1)
	if err != nil {
		return nil, err
	}
	cor2, err := corollary10On(ctx, p.Operator(), p.N, 2)
	if err != nil {
		return nil, err
	}
	res2, err := buildOverInputs(ctx, p.Operator(), p.N, []string{"0", "1", "2"}, 1)
	if err != nil {
		return nil, err
	}
	_, found2, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(res2.Complex, res2.Views), 2, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(cor1 && !found, "Cor. 10 obstructed, no map", "async n=2 f=1 k=1", boolStr(cor1 && !found))
	t.addRow(!cor2 && found2, "Cor. 10 silent, map found", "async n=2 f=1 k=2", boolStr(!cor2 && found2))

	p0 := asyncmodel.Params{N: 2, F: 0}
	obstructed0, err := theorem9Over(ctx, p0.Operator(), p0.N, binary, 1)
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

// theorem9Over evaluates Theorem 9's hypothesis for k-set agreement on
// op's one-round complexes over n+1 processes and the given input values,
// each built under ctx. The check takes a closure that returns a complex
// alone, so the first build error is kept and returned, never read as the
// empty complex the check was handed.
func theorem9Over(ctx context.Context, op roundop.Operator, n int, values []string, k int) (bool, error) {
	var buildErr error
	obstructed, err := task.Theorem9Obstructed(func(u []string) *topology.Complex {
		res, err := buildOverInputs(ctx, op, n, u, 1)
		if err != nil {
			buildErr = cmp.Or(buildErr, err)
			return topology.NewComplex()
		}
		return res.Complex
	}, values, k)
	return obstructed, cmp.Or(err, buildErr)
}

// corollary10On evaluates Corollary 10's hypothesis for k-set agreement
// on op's one-round complexes over the faces of an n-simplex, each built
// under ctx, and returns the first build error as theorem9Over does.
func corollary10On(ctx context.Context, op roundop.Operator, n, k int) (bool, error) {
	var buildErr error
	obstructed := task.Corollary10Obstructed(func(m int) *topology.Complex {
		res, err := build(ctx, op, core.LabeledSimplex(m), 1)
		if err != nil {
			buildErr = cmp.Or(buildErr, err)
			return topology.NewComplex()
		}
		return res.Complex
	}, n, k)
	return obstructed, buildErr
}
