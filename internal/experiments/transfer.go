package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// E32Transfer checks the connectivity-transfer theorems on concrete
// protocols: Theorems 5 and 7 with the identity protocol (Corollaries 6
// and 8) and with one-round operators, and the iterated Theorem 2
// argument of Lemmas 16 and 21 over each model's one-round pieces.
func E32Transfer(ctx context.Context) (*Table, error) {
	t := newTable("E32", "connectivity transfer and Mayer-Vietoris unions",
		"Theorems 2, 5 and 7, Corollaries 6 and 8, Lemmas 16 and 21",
		"check", "instance", "hypothesis", "conclusion")

	var opErr error
	asyncMap := core.OperatorProtocol(ctx, func(topology.Simplex) roundop.Operator {
		return asyncmodel.Params{N: 2, F: 1}.Operator()
	}, 1, &opErr)
	// Sync n=2 k=1: P(S^l) has the n-l absent processes fail before
	// sending, which leaves k-(n-l) crashes to the participants; below
	// l = n-k the complex is empty.
	syncMap := core.OperatorProtocol(ctx, func(s topology.Simplex) roundop.Operator {
		left := 1 - (2 - s.Dim())
		if left < 0 {
			return nil
		}
		return syncmodel.Params{PerRound: left, Total: left}.Operator()
	}, 1, &opErr)
	s1, s2 := core.ProcessSimplex(1), core.ProcessSimplex(2)
	bin3 := [][]string{binary, binary, binary}
	for _, c := range []struct {
		check, instance string
		thm             func(core.ProtocolMap, topology.Simplex, [][]string, int) (bool, bool, error)
		p               core.ProtocolMap
		base            topology.Simplex
		sets            [][]string
		c               int
		want            bool // hypothesis and conclusion both hold, or both fail
	}{
		{"Theorem 5 (Cor. 6)", "id, psi(S^2; {0,1}), c=0", core.Theorem5Check, core.IdentityProtocol, s2, bin3, 0, true},
		{"Theorem 5 (Cor. 6)", "id, psi(S^2; {0},{0,1,2},{1}), c=0", core.Theorem5Check, core.IdentityProtocol, s2,
			[][]string{{"0"}, {"0", "1", "2"}, {"1"}}, 0, true},
		{"Theorem 5", "async n=2 f=1, c=n-f=1", core.Theorem5Check, asyncMap, s2, bin3, 1, true},
		{"Theorem 5", "sync n=2 k=1, c=n-k=1", core.Theorem5Check, syncMap, s2, bin3, 1, true},
		{"Theorem 7 (Cor. 8)", "id, {0,1} {1,2} {1,3}, c=0", core.Theorem7Check, core.IdentityProtocol, s2,
			[][]string{{"0", "1"}, {"1", "2"}, {"1", "3"}}, 0, true},
		{"Theorem 7 silent", "id, {0} {1} over S^1, c=0", core.Theorem7Check, core.IdentityProtocol, s1,
			[][]string{{"0"}, {"1"}}, 0, false},
		{"Theorem 7", "async n=2 f=1, {0,1} {1,2}, c=1", core.Theorem7Check, asyncMap, s2,
			[][]string{{"0", "1"}, {"1", "2"}}, 1, true},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hyp, concl, err := c.thm(c.p, c.base, c.sets, c.c)
		if err == nil {
			err = opErr
		}
		if err != nil {
			return nil, err
		}
		t.addRow(hyp == c.want && concl == c.want, c.check, c.instance, boolStr(hyp), boolStr(concl))
	}

	// Theorem 2 iterated over the one-round branch pieces: the proof's
	// verdict against the connectivity of the built complex.
	for _, c := range []struct {
		instance string
		op       roundop.Operator
		n, conn  int
		pair     bool // also check Theorem 2 on the first two pieces
	}{
		{"async n=2 f=1", asyncmodel.Params{N: 2, F: 1}.Operator(), 2, 0, false},
		{"async n=3 f=1", asyncmodel.Params{N: 3, F: 1}.Operator(), 3, 0, false},
		{"async n=3 f=2", asyncmodel.Params{N: 3, F: 2}.Operator(), 3, 1, false},
		{"sync n=2 k=1", syncmodel.Params{PerRound: 1, Total: 1}.Operator(), 2, 0, true},
		{"sync n=3 k=1", syncmodel.Params{PerRound: 1, Total: 1}.Operator(), 3, 0, false},
		{"semisync n=2 k=1", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}.Operator(), 2, 0, false},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		input := core.LabeledSimplex(c.n)
		results, err := roundop.BranchResults(c.op, input)
		if err != nil {
			return nil, err
		}
		var pieces []*topology.Complex
		for _, res := range results {
			if !res.Complex.IsEmpty() {
				pieces = append(pieces, res.Complex)
			}
		}
		proof := homology.ProveUnionConnectivity(pieces, c.conn)
		whole, err := build(ctx, c.op, input, 1)
		if err != nil {
			return nil, err
		}
		direct := homology.IsKConnected(whole.Complex, c.conn)
		t.addRow(proof.OK && direct, "Theorem 2 over pieces",
			fmt.Sprintf("%s, pieces=%d, %d-conn", c.instance, len(pieces), c.conn), boolStr(proof.OK), boolStr(direct))
		if c.pair {
			hyp, concl := homology.VerifyMayerVietoris(pieces[0], pieces[1], c.conn)
			t.addRow(hyp && concl, "Theorem 2", c.instance+", pieces 1 and 2", boolStr(hyp), boolStr(concl))
		}
	}
	t.Notes = "Theorem 2 over pieces: hypothesis is the Mayer-Vietoris proof's verdict, conclusion the connectivity of the built complex"
	return t, nil
}
