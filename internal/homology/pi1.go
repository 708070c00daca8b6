package homology

import (
	"sort"

	"pseudosphere/internal/topology"
)

// Pi1Trivial attempts to certify that the fundamental group of a connected
// complex is trivial, using the edge-path group presentation: generators
// are the edges outside a spanning tree of the 1-skeleton, and each
// 2-simplex contributes a relation among its three edges. The presentation
// is simplified by Tietze transformations (eliminate a generator that
// occurs exactly once in some relation). The procedure is sound but
// incomplete: it returns (true, true) when triviality is certified,
// (false, true) when a nontrivial abelianization is detected, and
// (_, false) when the simplification is inconclusive (word problems are
// undecidable in general; on the paper's complexes the simplifier
// converges).
func Pi1Trivial(c *topology.Complex) (trivial, conclusive bool) {
	if !IsGraphConnected(c) {
		return false, true
	}
	verts := c.Vertices()
	idx := make(map[topology.Vertex]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}

	// Spanning tree via union-find over the edges.
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
	edges := c.Simplices(1)
	inTree := make(map[string]bool, len(verts)-1)
	genID := make(map[string]int) // non-tree edge key -> generator id (1-based)
	for _, e := range edges {
		a, b := find(idx[e[0]]), find(idx[e[1]])
		if a != b {
			parent[a] = b
			inTree[e.Key()] = true
		} else {
			genID[e.Key()] = len(genID) + 1
		}
	}
	if len(genID) == 0 {
		return true, true // 1-skeleton is a tree
	}

	// Relations from 2-simplexes: for a triangle with vertices u < v < w
	// (by the canonical order), the edge path uv.vw.wu^-1 ... i.e.
	// g(uv) * g(vw) * g(uw)^-1 = 1, with tree edges the identity.
	var relations [][]int
	for _, t := range c.Simplices(2) {
		// t is a valid simplex with vertices in ascending process-id
		// order, so its vertex pairs are valid edges as-is.
		uv := topology.Simplex{t[0], t[1]}
		vw := topology.Simplex{t[1], t[2]}
		uw := topology.Simplex{t[0], t[2]}
		var word []int
		appendGen := func(e topology.Simplex, sign int) {
			if inTree[e.Key()] {
				return
			}
			word = append(word, sign*genID[e.Key()])
		}
		appendGen(uv, 1)
		appendGen(vw, 1)
		appendGen(uw, -1)
		word = freeReduce(word)
		if len(word) > 0 {
			relations = append(relations, word)
		}
	}

	alive := make(map[int]bool, len(genID))
	for _, g := range genID {
		alive[g] = true
	}

	// Tietze simplification: find a relation in which some generator
	// occurs exactly once; solve for it and substitute everywhere.
	for {
		if len(alive) == 0 {
			return true, true
		}
		target, relIdx := pickEliminable(relations, alive)
		if target == 0 {
			// No single-occurrence generator found. As a final check,
			// compute the abelianization rank: if nonzero, pi1 maps onto Z
			// and is nontrivial.
			if abelianRankNonzero(relations, alive) {
				return false, true
			}
			return false, false
		}
		replacement := solveFor(relations[relIdx], target)
		relations = append(relations[:relIdx], relations[relIdx+1:]...)
		for i := range relations {
			relations[i] = freeReduce(substitute(relations[i], target, replacement))
		}
		delete(alive, abs(target))
		// Drop empty relations.
		kept := relations[:0]
		for _, r := range relations {
			if len(r) > 0 {
				kept = append(kept, r)
			}
		}
		relations = kept
	}
}

// pickEliminable finds a (generator, relation) pair where the generator
// occurs exactly once in that relation. Returns the signed occurrence and
// relation index, or (0, -1).
func pickEliminable(relations [][]int, alive map[int]bool) (int, int) {
	best, bestIdx := 0, -1
	bestLen := 1 << 30
	for i, rel := range relations {
		counts := make(map[int]int)
		for _, g := range rel {
			counts[abs(g)]++
		}
		for _, g := range rel {
			if alive[abs(g)] && counts[abs(g)] == 1 && len(rel) < bestLen {
				best, bestIdx, bestLen = g, i, len(rel)
			}
		}
	}
	return best, bestIdx
}

// solveFor rewrites relation rel (= identity) as target = word, returning
// the word that replaces one occurrence of target.
func solveFor(rel []int, target int) []int {
	pos := -1
	for i, g := range rel {
		if g == target {
			pos = i
			break
		}
	}
	// rel = a target b = 1  =>  target = a^-1 b^-1.
	a := rel[:pos]
	b := rel[pos+1:]
	word := make([]int, 0, len(rel)-1)
	word = append(word, invertWord(a)...)
	word = append(word, invertWord(b)...)
	return freeReduce(word)
}

// substitute replaces every occurrence of ±target in w by the replacement
// word (inverted for -target).
func substitute(w []int, target int, replacement []int) []int {
	var out []int
	for _, g := range w {
		switch {
		case g == target:
			out = append(out, replacement...)
		case g == -target:
			out = append(out, invertWord(replacement)...)
		default:
			out = append(out, g)
		}
	}
	return out
}

func invertWord(w []int) []int {
	out := make([]int, len(w))
	for i, g := range w {
		out[len(w)-1-i] = -g
	}
	return out
}

// freeReduce cancels adjacent inverse pairs.
func freeReduce(w []int) []int {
	var out []int
	for _, g := range w {
		if len(out) > 0 && out[len(out)-1] == -g {
			out = out[:len(out)-1]
		} else {
			out = append(out, g)
		}
	}
	return out
}

// abelianRankNonzero computes whether the abelianized presentation has a
// free Z summand, i.e. the relation matrix over Q has rank < number of
// alive generators. If so, pi1 surjects onto Z and is nontrivial.
func abelianRankNonzero(relations [][]int, alive map[int]bool) bool {
	gens := make([]int, 0, len(alive))
	for g := range alive {
		gens = append(gens, g)
	}
	sort.Ints(gens)
	col := make(map[int]int, len(gens))
	for i, g := range gens {
		col[g] = i
	}
	m := make([][]int64, len(relations))
	for i, rel := range relations {
		m[i] = make([]int64, len(gens))
		for _, g := range rel {
			if j, ok := col[abs(g)]; ok {
				if g > 0 {
					m[i][j]++
				} else {
					m[i][j]--
				}
			}
		}
	}
	return rationalRank(m, nil) < len(gens)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
