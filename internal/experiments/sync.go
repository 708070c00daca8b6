package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// E5SyncOneRound reproduces Figure 3 and verifies Lemma 14: the one-round
// synchronous complex is the union of per-failure-set pseudospheres.
func E5SyncOneRound(ctx context.Context) (*Table, error) {
	t := newTable("E5", "sync one-round union of pseudospheres", "Figure 3, Lemma 14",
		"quantity", "paper", "measured")
	input := labeledInput(2)
	res, err := build(ctx, syncmodel.Params{PerRound: 1, Total: 1}.Operator(), input, 1)
	if err != nil {
		return nil, err
	}
	verts := len(res.Complex.Vertices())
	t.addRow(verts == 9, "vertices (3 views per process)", "9", itoa(verts))
	var triangles, edges int
	for _, f := range res.Complex.Facets() {
		if f.Dim() == 2 {
			triangles++
		} else {
			edges++
		}
	}
	t.addRow(triangles == 1, "failure-free triangles", "1", itoa(triangles))
	t.addRow(edges == 9, "single-failure facet edges", "9", itoa(edges))

	// Lemma 14 isomorphism for each failure set.
	for _, fail := range [][]int{{}, {0}, {1}, {2}} {
		one, err := syncmodel.OneRoundExactly(input, fail)
		if err != nil {
			return nil, err
		}
		ps, err := syncmodel.Lemma14Pseudosphere(input, fail)
		if err != nil {
			return nil, err
		}
		m, err := syncmodel.Lemma14Map(one, input, fail)
		if err != nil {
			return nil, err
		}
		isoErr := topology.VerifyIsomorphism(one.Complex, ps, m)
		t.addRow(isoErr == nil,
			fmt.Sprintf("S^1_K ~ psi(S\\K; 2^K), K=%v", fail), "isomorphic", boolStr(isoErr == nil))
	}
	return t, nil
}

// E6SyncIntersections verifies Lemma 15 along the full lexicographic
// ordering of failure sets.
func E6SyncIntersections(ctx context.Context) (*Table, error) {
	t := newTable("E6", "sync prefix intersections", "Lemma 15",
		"processes", "k", "K_t checked", "all equal")
	for _, c := range []struct {
		n, k int
	}{{2, 1}, {3, 1}, {3, 2}} {
		input := labeledInput(c.n)
		sets := syncmodel.FailureSets(input.IDs(), c.k)
		prefix := topology.NewComplex()
		checked := 0
		allOK := true
		for ti, fail := range sets {
			cur, err := syncmodel.OneRoundExactly(input, fail)
			if err != nil {
				return nil, err
			}
			if ti > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := syncmodel.Lemma15RHS(input, fail)
				if err != nil {
					return nil, err
				}
				checked++
				if !lhs.Equal(rhs.Complex) {
					allOK = false
				}
			}
			prefix.UnionWith(cur.Complex)
		}
		t.addRow(allOK, itoa(c.n+1), itoa(c.k), itoa(checked), boolStr(allOK))
	}
	return t, nil
}

// E7SyncConnectivity verifies Lemmas 16 and 17.
func E7SyncConnectivity(ctx context.Context) (*Table, error) {
	t := newTable("E7", "sync connectivity", "Lemmas 16 and 17",
		"instance", "paper", "measured")
	for _, c := range []struct {
		n, k, r, m int
	}{
		{2, 1, 1, 2},
		{3, 1, 1, 3},
		{3, 1, 2, 3},
		{4, 2, 1, 4},
		{4, 1, 3, 4},
	} {
		input := labeledInput(c.n)[:c.m+1]
		res, err := build(ctx, syncmodel.Params{PerRound: c.k, Total: c.r * c.k}.Operator(), input, c.r)
		if err != nil {
			return nil, err
		}
		target := c.m - (c.n - c.k) - 1
		ok, err := conn.IsKConnectedCtx(ctx, res.Complex, target)
		if err != nil {
			return nil, err
		}
		t.addRow(ok,
			fmt.Sprintf("S^%d(S^%d), n=%d k=%d", c.r, c.m, c.n, c.k),
			fmt.Sprintf("%d-connected (n>=rk+k)", target),
			boolStr(ok))
	}
	return t, nil
}

// E8SyncBoundTable reproduces Theorem 18 as a table and drives both sides
// on the executable substrate: below the bound the decision-map search
// fails (and a too-short protocol breaks under some crash schedule); at
// the bound the flooding protocol succeeds under EVERY crash schedule.
func E8SyncBoundTable(ctx context.Context) (*Table, error) {
	t := newTable("E8", "sync round bound, lower and upper", "Theorem 18",
		"n", "f", "k", "bound (rounds)", "evidence")

	// Closed-form table.
	for _, c := range []struct{ n, f, k int }{
		{2, 1, 1}, {3, 2, 1}, {5, 3, 2}, {7, 6, 3}, {2, 2, 1}, {3, 3, 2},
	} {
		lb, err := bounds.SyncRoundLowerBound(c.n, c.f, c.k)
		if err != nil {
			return nil, err
		}
		want := c.f/c.k + 1
		if c.n < c.f+c.k {
			want = c.f / c.k
		}
		t.addRow(lb == want, itoa(c.n), itoa(c.f), itoa(c.k), itoa(lb), "closed form")
	}

	// Operational boundary at n=2, f=1, k=1: no 1-round map, a 2-round map.
	p := syncmodel.Params{PerRound: 1, Total: 1}
	one, err := buildOverInputs(ctx, p.Operator(), 2, binary, 1)
	if err != nil {
		return nil, err
	}
	_, found1, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(one.Complex, one.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(!found1, "2", "1", "1", "2", "1-round decision map exists: "+boolStr(found1))

	two, err := buildOverInputs(ctx, p.Operator(), 2, binary, 2)
	if err != nil {
		return nil, err
	}
	_, found2, err := task.FindDecisionParallelCtx(ctx, task.AnnotateViews(two.Complex, two.Views), 1, 0, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(found2, "2", "1", "1", "2", "2-round decision map exists: "+boolStr(found2))

	// Upper bound: FloodSet survives every crash schedule in f+1 rounds,
	// and some schedule breaks an f-round variant.
	inputs := []string{"0", "1", "2"}
	f := 1
	okAll := true
	schedules, err := sim.EnumerateCrashSchedulesCtx(ctx, len(inputs), f, f+1)
	if err != nil {
		return nil, err
	}
	for _, cs := range schedules {
		out, err := sim.RunSync(inputs, protocols.NewFloodSet(f), cs, f+2)
		if err != nil {
			return nil, err
		}
		if out.CheckConsensus() != nil {
			okAll = false
		}
	}
	t.addRow(okAll, "2", "1", "1", "2", "f+1-round FloodSet correct on all schedules: "+boolStr(okAll))

	broke := false
	short := protocols.NewSyncKSet(0, 1) // 1-round flooding, pretending f=0
	shortSchedules, err := sim.EnumerateCrashSchedulesCtx(ctx, len(inputs), f, f)
	if err != nil {
		return nil, err
	}
	for _, cs := range shortSchedules {
		out, err := sim.RunSync(inputs, short, cs, f+1)
		if err != nil {
			return nil, err
		}
		if out.CheckConsensus() != nil {
			broke = true
			break
		}
	}
	t.addRow(broke, "2", "1", "1", "2", "f-round flooding breaks under some schedule: "+boolStr(broke))
	return t, nil
}
