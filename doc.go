// Package pseudosphere is a Go reproduction of Herlihy, Rajsbaum, and
// Tuttle, "Unifying Synchronous and Asynchronous Message-Passing Models"
// (PODC 1998).
//
// The library builds the paper's combinatorial objects — simplicial
// complexes (internal/topology), their homology and connectivity
// (internal/homology: serial references plus a sparse engine for GF(2),
// GF(p) and Q with coreduction and canonical-hash memoization,
// differentially tested to give bit-identical Betti numbers; the cmd
// tools expose its cache via -cache), pseudospheres and their algebra
// (internal/core) —
// and the three round-structured protocol-complex constructions the paper
// unifies: asynchronous (internal/asyncmodel), synchronous
// (internal/syncmodel), and semi-synchronous (internal/semisync). Every
// lemma with mathematical content is verified mechanically; every figure
// and quantitative bound is regenerated by internal/experiments and the
// cmd/experiments tool.
//
// An executable substrate (internal/sim) runs real agreement protocols
// (internal/protocols) over reliable FIFO links under the same three
// timing models, with crash injection; it supplies the matching
// upper bounds for the paper's lower bounds (Theorem 18, Corollaries 13
// and 22).
//
// See README.md for a tour and DESIGN.md for the system inventory and
// per-experiment index.
package pseudosphere
