package core_test

import (
	"context"
	"errors"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

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
