package homology

import "pseudosphere/internal/topology"

// MVStep records one application of Theorem 2 in a union-connectivity
// proof: the prefix so far, the next piece, and the connectivity facts
// established for each side and their intersection.
type MVStep struct {
	Piece             int  // index of the piece being united
	PrefixConnected   bool // prefix is conn-connected
	PieceConnected    bool // piece is conn-connected
	IntersectionOK    bool // intersection nonempty and (conn-1)-connected
	ResultingConnOK   bool // union is conn-connected (by the theorem; also verified)
	IntersectionEmpty bool
}

// MVProof is the trace of an iterated Mayer–Vietoris argument.
type MVProof struct {
	Conn  int
	Steps []MVStep
	OK    bool
}

// ProveUnionConnectivity establishes that the union of the given pieces is
// conn-connected by the paper's own method: order the pieces, and at each
// step apply Theorem 2 — if the prefix union and the next piece are
// conn-connected and their intersection is nonempty and
// (conn-1)-connected, the new union is conn-connected. This mirrors the
// proofs of Lemmas 16 and 21, where the pieces are the pseudospheres
// S^1_K or M^1_{K,F} in their lexicographic orderings and the
// intersections are the unions of pseudospheres given by Lemmas 15 and 20.
//
// The returned proof records every step; OK is true only if every
// hypothesis held, in which case conn-connectivity of the whole union is
// established without ever computing the union's homology directly.
// (Each hypothesis is checked homologically on the smaller complexes.)
func ProveUnionConnectivity(pieces []*topology.Complex, conn int) *MVProof {
	proof := &MVProof{Conn: conn, OK: true}
	if len(pieces) == 0 {
		proof.OK = false
		return proof
	}
	prefix := pieces[0].Clone()
	prefixConn := IsKConnected(prefix, conn)
	if !prefixConn {
		proof.OK = false
		return proof
	}
	for i := 1; i < len(pieces); i++ {
		piece := pieces[i]
		step := MVStep{Piece: i}
		step.PrefixConnected = true // established inductively
		step.PieceConnected = IsKConnected(piece, conn)
		inter := prefix.Intersection(piece)
		step.IntersectionEmpty = inter.IsEmpty()
		step.IntersectionOK = !inter.IsEmpty() && IsKConnected(inter, conn-1)
		step.ResultingConnOK = step.PieceConnected && step.IntersectionOK
		proof.Steps = append(proof.Steps, step)
		if !step.ResultingConnOK {
			proof.OK = false
			return proof
		}
		prefix.UnionWith(piece)
	}
	return proof
}
