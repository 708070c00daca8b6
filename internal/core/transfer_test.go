package core_test

import (
	"context"
	"errors"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// asyncOneRoundMap adapts the asynchronous one-round operator through the
// shared engine (core.OperatorProtocol), so Theorems 5 and 7 are exercised
// against the engine itself. n and f are global in the async model, so the
// operator is face-independent.
func asyncOneRoundMap(t *testing.T, n, f int) core.ProtocolMap {
	t.Helper()
	var err error
	p := core.OperatorProtocol(context.Background(), func(topology.Simplex) roundop.Operator {
		return asyncmodel.Params{N: n, F: f}.Operator()
	}, 1, &err)
	t.Cleanup(func() {
		if err != nil {
			t.Fatal(err)
		}
	})
	return p
}

// syncOneRoundMap adapts the synchronous one-round operator. Per the
// paper's convention, P(S^l) is the subcomplex of executions where only
// ids(S^l) participate: the n-l missing processes fail before sending,
// consuming that much of the round's failure budget k, so only k-(n-l)
// further crashes may occur among the participants; below l = n-k the
// subcomplex is empty (a nil operator).
func syncOneRoundMap(t *testing.T, n, k int) core.ProtocolMap {
	t.Helper()
	var err error
	p := core.OperatorProtocol(context.Background(), func(s topology.Simplex) roundop.Operator {
		remaining := k - (n - s.Dim())
		if remaining < 0 {
			return nil
		}
		return syncmodel.Params{PerRound: remaining, Total: remaining}.Operator()
	}, 1, &err)
	t.Cleanup(func() {
		if err != nil {
			t.Fatal(err)
		}
	})
	return p
}

// TestTheorem5Identity recovers Corollary 6: the identity protocol
// satisfies the hypothesis with c = 0, so pseudospheres are
// (m-1)-connected.
func TestTheorem5Identity(t *testing.T) {
	base := core.ProcessSimplex(2)
	for _, sets := range [][][]string{
		{{"0", "1"}, {"0", "1"}, {"0", "1"}},
		{{"0"}, {"0", "1", "2"}, {"1"}},
	} {
		hyp, concl, err := core.Theorem5Check(core.IdentityProtocol, base, sets, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !hyp {
			t.Fatalf("identity protocol must satisfy the hypothesis for %v", sets)
		}
		if !concl {
			t.Fatalf("Theorem 5 conclusion failed for identity protocol on %v", sets)
		}
	}
}

// TestTheorem5Async instantiates Theorem 5 with the asynchronous one-round
// protocol: Lemma 12 gives the hypothesis with c = n-f, and the theorem's
// conclusion holds on input pseudospheres.
func TestTheorem5Async(t *testing.T) {
	n, f := 2, 1
	base := core.ProcessSimplex(n)
	c := n - f
	hyp, concl, err := core.Theorem5Check(asyncOneRoundMap(t, n, f), base,
		[][]string{{"0", "1"}, {"0", "1"}, {"0", "1"}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !hyp {
		t.Fatal("Lemma 12 should supply the Theorem 5 hypothesis")
	}
	if !concl {
		t.Fatal("Theorem 5 conclusion failed for the async one-round protocol")
	}
}

// TestTheorem5Sync instantiates Theorem 5 with the synchronous one-round
// protocol (k = 1, n = 2, c = n-k).
func TestTheorem5Sync(t *testing.T) {
	n, k := 2, 1
	base := core.ProcessSimplex(n)
	c := n - k
	hyp, concl, err := core.Theorem5Check(syncOneRoundMap(t, n, k), base,
		[][]string{{"0", "1"}, {"0", "1"}, {"0", "1"}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !hyp {
		t.Fatal("Lemma 16 should supply the Theorem 5 hypothesis")
	}
	if !concl {
		t.Fatal("Theorem 5 conclusion failed for the sync one-round protocol")
	}
}

// TestTheorem7Identity recovers Corollary 8: unions of pseudospheres over
// families with a common element are (m-1)-connected.
func TestTheorem7Identity(t *testing.T) {
	base := core.ProcessSimplex(2)
	hyp, concl, err := core.Theorem7Check(core.IdentityProtocol, base,
		[][]string{{"0", "1"}, {"1", "2"}, {"1", "3"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hyp || !concl {
		t.Fatalf("Corollary 8 instance: hyp=%v concl=%v", hyp, concl)
	}

	// Without a common element the hypothesis fails (and here so does the
	// conclusion: the union is disconnected).
	hyp, concl, err = core.Theorem7Check(core.IdentityProtocol, core.ProcessSimplex(1),
		[][]string{{"0"}, {"1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hyp {
		t.Fatal("disjoint families must not satisfy the common-element condition")
	}
	if concl {
		t.Fatal("disjoint union should be disconnected")
	}
}

// TestTheorem7Async instantiates Theorem 7 with the asynchronous one-round
// protocol over intersecting input families.
func TestTheorem7Async(t *testing.T) {
	n, f := 2, 1
	base := core.ProcessSimplex(n)
	hyp, concl, err := core.Theorem7Check(asyncOneRoundMap(t, n, f), base,
		[][]string{{"0", "1"}, {"1", "2"}}, n-f)
	if err != nil {
		t.Fatal(err)
	}
	if !hyp {
		t.Fatal("hypothesis should hold")
	}
	if !concl {
		t.Fatal("Theorem 7 conclusion failed")
	}
}

// TestApplyUnionsOverSimplices checks core.ProtocolMap.Apply against a manual
// union.
func TestApplyUnionsOverSimplices(t *testing.T) {
	base := core.ProcessSimplex(1)
	input := mustUniform(base, []string{"0", "1"})
	p := core.ProtocolMap(core.IdentityProtocol)
	applied := p.Apply(input)
	if !applied.Equal(input) {
		t.Fatal("identity protocol must reproduce the input complex")
	}
	if !homology.IsKConnected(applied, 0) {
		t.Fatal("psi(S^1;{0,1}) is connected")
	}
}

// TestOperatorProtocolCancelled: a protocol map built under a cancelled
// ctx records context.Canceled and contributes an empty complex, so a
// theorem check over it stops at its first build.
func TestOperatorProtocolCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var err error
	p := core.OperatorProtocol(ctx, func(topology.Simplex) roundop.Operator {
		return asyncmodel.Params{N: 2, F: 1}.Operator()
	}, 1, &err)
	if c := p(core.ProcessSimplex(2)); !c.IsEmpty() || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build gave %d simplexes and error %v", c.Size(), err)
	}
}
