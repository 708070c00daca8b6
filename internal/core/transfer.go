package core

import (
	"context"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

// ProtocolMap is a protocol viewed as a map from input simplexes to
// complexes, the shape quantified over in Theorems 5 and 7: P(S) is the
// complex of final states of executions starting from input simplex S,
// and P of a complex is the union of P over its simplexes.
type ProtocolMap func(topology.Simplex) *topology.Complex

// Apply unions the protocol complex over every simplex of the input
// complex (the paper's P(I)).
func (p ProtocolMap) Apply(input *topology.Complex) *topology.Complex {
	out := topology.NewComplex()
	for _, s := range input.AllSimplices() {
		out.UnionWith(p(s))
	}
	return out
}

// Theorem5Check verifies an instance of Theorem 5: if P(S^l) is
// (l-c-1)-connected for every face S^l of base, then P(psi(base; sets))
// is (m-c-1)-connected for nonempty sets. It returns whether the
// hypothesis holds on every face and whether the conclusion holds; the
// theorem asserts hypothesis implies conclusion, which the test suite
// checks on concrete protocols.
func Theorem5Check(p ProtocolMap, base topology.Simplex, sets [][]string, c int) (hypothesis, conclusion bool, err error) {
	hypothesis = true
	for _, face := range append(base.ProperFaces(), base) {
		l := face.Dim()
		if !homology.IsKConnected(p(face), l-c-1) {
			hypothesis = false
			break
		}
	}
	ps, err := Pseudosphere(base, sets)
	if err != nil {
		return false, false, err
	}
	m := base.Dim()
	conclusion = homology.IsKConnected(p.Apply(ps), m-c-1)
	return hypothesis, conclusion, nil
}

// Theorem7Check verifies an instance of Theorem 7: under the Theorem 5
// hypothesis, if the value-set families A_0..A_t have a common element,
// then P applied to the union of the pseudospheres psi(base; A_i) is
// (m-c-1)-connected. families[i] is used uniformly at every position of
// the base.
func Theorem7Check(p ProtocolMap, base topology.Simplex, families [][]string, c int) (hypothesis, conclusion bool, err error) {
	hypothesis = true
	for _, face := range append(base.ProperFaces(), base) {
		l := face.Dim()
		if !homology.IsKConnected(p(face), l-c-1) {
			hypothesis = false
			break
		}
	}
	// Common-element condition.
	if len(families) == 0 {
		return false, false, nil
	}
	common := make(map[string]int)
	for _, fam := range families {
		seen := make(map[string]bool)
		for _, v := range fam {
			if !seen[v] {
				seen[v] = true
				common[v]++
			}
		}
	}
	hasCommon := false
	for _, count := range common {
		if count == len(families) {
			hasCommon = true
			break
		}
	}
	hypothesis = hypothesis && hasCommon

	union := topology.NewComplex()
	for _, fam := range families {
		ps, err := Uniform(base, fam)
		if err != nil {
			return false, false, err
		}
		union.UnionWith(ps)
	}
	m := base.Dim()
	conclusion = homology.IsKConnected(p.Apply(union), m-c-1)
	return hypothesis, conclusion, nil
}

// IdentityProtocol is the trivial protocol in which every process halts
// immediately: P(S) is the closure of S. Feeding it to Theorem5Check and
// Theorem7Check yields Corollaries 6 and 8.
func IdentityProtocol(s topology.Simplex) *topology.Complex {
	return topology.ComplexOf(s)
}

// OperatorProtocol adapts any round operator to the ProtocolMap shape
// quantified over in Theorems 5 and 7, so the connectivity-transfer
// theorems are checked against the shared engine itself rather than
// per-model shims: P(S) is the engine's r-round complex over S. opFor maps
// each input simplex to the operator governing executions in which exactly
// its processes participate — models whose absent processes consume
// failure budget return a face-dependent operator (or nil for an empty
// subcomplex); models with global parameters ignore the argument.
// Enumeration errors (none are expected from the in-tree operators) are
// recorded once in *errOut when non-nil, and the offending input
// contributes an empty complex so the ProtocolMap shape is preserved.
func OperatorProtocol(opFor func(topology.Simplex) roundop.Operator, r int, errOut *error) ProtocolMap {
	return func(s topology.Simplex) *topology.Complex {
		op := opFor(s)
		if op == nil {
			return topology.NewComplex()
		}
		res, err := roundop.Build(context.Background(), op, s, r, roundop.Options{})
		if err != nil {
			if errOut != nil && *errOut == nil {
				*errOut = err
			}
			return topology.NewComplex()
		}
		return res.Complex
	}
}
