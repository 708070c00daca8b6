package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/topology"
)

// E9SemiSyncOneRound verifies Lemmas 19 and 20 on the semi-synchronous
// one-round complex.
func E9SemiSyncOneRound(ctx context.Context) (*Table, error) {
	t := newTable("E9", "semi-sync pseudospheres and intersections", "Lemmas 19 and 20",
		"check", "instance", "holds")
	input := labeledInput(2)
	p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2}
	micro := p.Micro()

	// Lemma 19 isomorphism across failure sets and patterns.
	for _, fail := range [][]int{{}, {1}, {0, 2}} {
		for _, f := range semisync.Patterns(fail, micro) {
			one, err := semisync.OneRoundPattern(input, fail, f, p, -1)
			if err != nil {
				return nil, err
			}
			ps, err := semisync.Lemma19Pseudosphere(input, fail, f, p)
			if err != nil {
				return nil, err
			}
			m, err := semisync.Lemma19Map(one, input)
			if err != nil {
				return nil, err
			}
			isoErr := topology.VerifyIsomorphism(one.Complex, ps, m)
			t.addRow(isoErr == nil, "Lemma 19: M_{K,F} ~ psi(S\\K;[F])",
				fmt.Sprintf("K=%v F=%s", fail, f.Key()), boolStr(isoErr == nil))
		}
	}

	// Lemma 20 along the full (K, F) ordering.
	for _, pr := range []semisync.Params{
		{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1},
		{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2},
	} {
		ordered := semisync.OrderedPseudospheres(input.IDs(), pr)
		prefix := topology.NewComplex()
		allOK := true
		checked := 0
		for ti, ip := range ordered {
			cur, err := semisync.OneRoundPattern(input, ip.Fail, ip.Pattern, pr, -1)
			if err != nil {
				return nil, err
			}
			if ti > 0 && len(ip.Fail) > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := semisync.Lemma20RHS(input, ip.Fail, ip.Pattern, pr)
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
		t.addRow(allOK, "Lemma 20: prefix intersections",
			fmt.Sprintf("k=%d, %d pseudospheres checked", pr.PerRound, checked), boolStr(allOK))
	}
	return t, nil
}

// E10SemiSyncBound verifies Lemma 21 connectivity, the Corollary 22 time
// bound table, and the stretching argument; it also runs the epoch
// protocol to show the solvable side sits above the bound.
func E10SemiSyncBound(ctx context.Context) (*Table, error) {
	t := newTable("E10", "semi-sync connectivity and wait-free time bound",
		"Lemma 21, Corollary 22",
		"check", "paper", "measured")

	// Lemma 21 connectivity.
	for _, c := range []struct {
		n, k, r, m int
	}{
		{2, 1, 1, 2}, {3, 1, 2, 3},
	} {
		input := labeledInput(c.n)[:c.m+1]
		p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: c.k, Total: c.r * c.k}
		res, err := build(ctx, p.Operator(), input, c.r)
		if err != nil {
			return nil, err
		}
		target := c.m - (c.n - c.k) - 1
		ok, err := conn.IsKConnectedCtx(ctx, res.Complex, target)
		if err != nil {
			return nil, err
		}
		t.addRow(ok,
			fmt.Sprintf("M^%d(S^%d), n=%d k=%d", c.r, c.m, c.n, c.k),
			fmt.Sprintf("%d-connected (n>=(r+1)k)", target), boolStr(ok))
	}

	// Corollary 22 closed-form table.
	for _, c := range []struct {
		f, k, c1, c2, d int
		want            string
	}{
		{2, 1, 1, 3, 2, "10"},
		{3, 2, 2, 3, 5, "25/2"},
		{4, 2, 1, 2, 3, "12"},
	} {
		b, err := bounds.SemiSyncTimeLowerBound(c.f, c.k, c.c1, c.c2, c.d)
		if err != nil {
			return nil, err
		}
		t.addRow(b.String() == c.want,
			fmt.Sprintf("floor(f/k)d+Cd, f=%d k=%d c1=%d c2=%d d=%d", c.f, c.k, c.c1, c.c2, c.d),
			c.want, b.String())
	}

	// Stretching argument: the solo slow process cannot distinguish the
	// stretched suffix strictly before C*d after the last delivery.
	p := semisync.Params{C1: 1, C2: 3, D: 2, PerRound: 1, Total: 2}
	s := semisync.NewStretch(p)
	before := !s.DistinguishableAt(s.TimeoutAfter - 1)
	at := s.DistinguishableAt(s.TimeoutAfter)
	t.addRow(before && at,
		"stretch window", fmt.Sprintf("indistinguishable on [0, C*d=%d)", s.TimeoutAfter),
		fmt.Sprintf("hidden before=%s, visible at=%s", boolStr(before), boolStr(at)))

	// The stretched run on the virtual-time scheduler: the solo process's
	// step count stays below p until exactly C*d.
	timing := sim.Timing{C1: p.C1, C2: p.C2, D: p.D}
	factory := func() sim.TimedProtocol { return &stepCounter{} }
	run, err := sim.RunTimed([]string{"a", "b"}, factory, timing,
		sim.SlowSoloSchedule{Timing: timing, Solo: 0, From: 0},
		sim.TimedCrashSchedule{1: {Time: 1}}, s.TimeoutAfter)
	if err != nil {
		return nil, err
	}
	soloSteps := run.DecidedAt[0] // abused: stepCounter decides at step p, recording the time
	t.addRow(soloSteps == s.TimeoutAfter,
		"solo slow process takes p steps", fmt.Sprintf("at time C*d = %d", s.TimeoutAfter), itoa(soloSteps))

	// Solvable side: epoch protocol decision times sit above the bound.
	lb, err := bounds.SemiSyncTimeLowerBound(1, 1, 1, 2, 2)
	if err != nil {
		return nil, err
	}
	runUp, err := sim.RunTimed([]string{"1", "0", "2"}, protocols.NewSemiSyncKSet(1, 1),
		sim.Timing{C1: 1, C2: 2, D: 2}, sim.LockstepSchedule{Timing: sim.Timing{C1: 1, C2: 2, D: 2}}, nil, 10000)
	if err != nil {
		return nil, err
	}
	if err := runUp.Outcome.CheckConsensus(); err != nil {
		return nil, err
	}
	minDecide := -1
	for _, at := range runUp.DecidedAt {
		if minDecide < 0 || at < minDecide {
			minDecide = at
		}
	}
	ok := float64(minDecide) >= lb.Float()
	t.addRow(ok, "epoch protocol decision time",
		fmt.Sprintf(">= lower bound %s", lb), itoa(minDecide))
	return t, nil
}

// stepCounter decides at its p-th step (p = ceil(d/c1)), recording when
// timeout-by-step-counting first becomes possible.
type stepCounter struct {
	steps, micro int
}

func (c *stepCounter) Init(self, n int, input string, timing sim.Timing) {
	c.micro = (timing.D + timing.C1 - 1) / timing.C1
}
func (c *stepCounter) Deliver(now, from int, payload string) {}
func (c *stepCounter) Step(now int) (string, bool, string) {
	if now == 0 {
		// The step at the round boundary completes no interval; only
		// completed intervals bound elapsed time from below.
		return "", false, ""
	}
	c.steps++
	if c.steps >= c.micro {
		return "", true, "timeout"
	}
	return "", false, ""
}
