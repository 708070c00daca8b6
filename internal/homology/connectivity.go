package homology

import "pseudosphere/internal/topology"

// IsKConnected reports whether the complex is homologically k-connected:
// nonempty with vanishing reduced homology (over GF(2)) in dimensions
// 0..k. Following the paper's Definition 1 conventions, every complex is
// k-connected for k < -1, and a complex is (-1)-connected iff it is
// nonempty.
//
// Homological k-connectivity is the property the paper's Mayer–Vietoris
// engine (Theorem 2) manipulates. Full homotopy k-connectivity
// additionally requires simple connectivity for k >= 1 (see Pi1Trivial);
// the test suite certifies simple connectivity on all instances small
// enough to check.
func IsKConnected(c *topology.Complex, k int) bool {
	if k < -1 {
		return true
	}
	if c.IsEmpty() {
		return false
	}
	if k == -1 {
		return true
	}
	betti := BettiZ2UpTo(c, k)
	return reducedVanishUpTo(betti, k)
}

// Connectivity returns the largest k such that the complex is
// (homologically) k-connected, bounded above by the dimension of the
// complex. An empty complex yields -2 (it is k-connected only for k < -1);
// a nonempty complex yields at least -1.
func Connectivity(c *topology.Complex) int {
	return ConnectivityFromBetti(BettiZ2(c))
}

// ConnectivityFromBetti is the connectivity that a non-reduced GF(2) Betti
// vector implies, with Connectivity's conventions: -2 for the empty vector
// of an empty complex, otherwise the largest k < len(betti) whose reduced
// Betti numbers vanish in dimensions 0..k (-1 when none do). On a vector
// capped at maxDim >= 0 (Engine.BettiZ2UpToCtx) it is
// min(Connectivity(c), maxDim).
func ConnectivityFromBetti(betti []int) int {
	if len(betti) == 0 {
		return -2
	}
	k := -1
	for d, b := range betti {
		if d == 0 {
			b--
		}
		if b != 0 {
			break
		}
		k = d
	}
	return k
}

// IsGraphConnected reports whether the 1-skeleton of the complex is
// connected in the graph-theoretic sense. It agrees with IsKConnected(c, 0)
// (the test suite checks this) but runs in near-linear time.
func IsGraphConnected(c *topology.Complex) bool {
	verts := c.Vertices()
	if len(verts) == 0 {
		return false
	}
	idx := make(map[topology.Vertex]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	parent := make([]int, len(verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range c.Simplices(1) {
		a, b := find(idx[e[0]]), find(idx[e[1]])
		parent[a] = b
	}
	root := find(0)
	for i := 1; i < len(verts); i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

// VerifyMayerVietoris checks the hypothesis and conclusion of the paper's
// Theorem 2 on a concrete pair of complexes: if K and L are k-connected and
// K ∩ L is nonempty and (k-1)-connected, then K ∪ L must be k-connected.
// It returns (hypothesisHolds, conclusionHolds). The test suite asserts
// that hypothesisHolds implies conclusionHolds on every instance it
// generates; a counterexample would indicate a bug in the homology engine.
func VerifyMayerVietoris(k *topology.Complex, l *topology.Complex, conn int) (bool, bool) {
	inter := k.Intersection(l)
	hyp := IsKConnected(k, conn) && IsKConnected(l, conn) &&
		!inter.IsEmpty() && IsKConnected(inter, conn-1)
	concl := IsKConnected(k.Union(l), conn)
	return hyp, concl
}
