// Package homology computes simplicial homology and homological
// connectivity of the complexes built by the model packages.
//
// The paper's entire topological apparatus is the Mayer–Vietoris sequence
// (its Theorem 2), which is a statement about homology; accordingly the
// package's primary engine is reduced simplicial homology over GF(2), with
// cross-checks over GF(p) for odd primes and over the rationals, plus an
// edge-path-group check of simple connectivity for small complexes. A
// complex that is homologically k-connected and simply connected is
// k-connected in the full homotopy-theoretic sense (Hurewicz); the test
// suite verifies simple connectivity on every instance small enough to
// check, and the homological computations cover the rest.
//
// Two kinds of engine coexist. The serial functions over the whole
// complex (BettiZ2 in this file, BettiGFp in gfp.go, BettiQ in
// rational.go) are the references, kept intentionally simple. Engine
// (engine.go, morse.go, columns.go, cache.go) collapses the complex by
// coreduction, then runs one low-index column reduction over the
// critical cells in a column store per field, and memoizes GF(2)
// results by topology.Complex.CanonicalHash. Both run on the caller's
// goroutine. The differential tests assert the two produce bit-identical
// Betti numbers on every instance class the repo generates.
package homology

import "sort"

// sparseZ2Matrix is a boundary matrix over GF(2) stored column-wise; each
// column is a sorted list of row indices with a 1.
type sparseZ2Matrix struct {
	cols [][]int
	rows int
}

// rank computes the GF(2) rank using the standard persistent-homology
// column reduction: repeatedly cancel a column's lowest 1 against the
// already-reduced column with the same low index.
func (m *sparseZ2Matrix) rank() int {
	lowOwner := make(map[int]int) // low row index -> column index owning it
	rank := 0
	for j := range m.cols {
		col := m.cols[j]
		for len(col) > 0 {
			low := col[len(col)-1]
			owner, ok := lowOwner[low]
			if !ok {
				break
			}
			col = symDiff(col, m.cols[owner])
		}
		m.cols[j] = col
		if len(col) > 0 {
			lowOwner[col[len(col)-1]] = j
			rank++
		}
	}
	return rank
}

// symDiff returns the symmetric difference of two sorted int slices.
func symDiff(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// normalizeColumn sorts and deduplicates-by-parity a column's row indices.
func normalizeColumn(rows []int) []int {
	sort.Ints(rows)
	out := rows[:0]
	for i := 0; i < len(rows); {
		j := i
		for j < len(rows) && rows[j] == rows[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, rows[i])
		}
		i = j
	}
	return out
}
