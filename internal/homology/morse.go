package homology

import (
	"context"
	"fmt"
	"sync/atomic"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/topology"
)

// Coreduction (discrete-Morse) preprocessing for the homology engines.
//
// Protocol complexes are overwhelmingly acyclic in the small: almost every
// cell sits in a collapsible cone over its neighborhood, and only a thin
// "critical" core carries homology. Algebraic reduction cost is
// superlinear in matrix size, so eliminating the acyclic bulk *before*
// building boundary matrices is worth far more than any constant-factor
// tuning of the reduction itself.
//
// The pass is the Mrozek–Batko coreduction algorithm, run bottom-up on
// the interned incidence structure:
//
//  1. Union-find over vertex entries joined by edge entries counts the
//     connected components; b0 is read off here and never touches a
//     matrix.
//  2. One seed vertex per component is removed, switching the complex to
//     its reduced homology (removing a vertex from a connected complex
//     leaves an S-complex computing reduced Betti numbers; b0 is restored
//     from the component count afterwards).
//  3. Coreduction pairs are eliminated until none remain: whenever a cell
//     b has exactly one still-alive codimension-1 face a, both a and b
//     are removed. Because the incidence coefficient of a in ∂b is ±1
//     (simplicial boundaries are unit-coefficient) and a is the *only*
//     alive cell of ∂b, the usual elimination correction term
//     λ·(∂b restricted) vanishes identically — removal is pure deletion,
//     with zero fill-in and no coefficient changes, exact over GF(2),
//     GF(p), and Q alike. Inductively the restricted boundary stays the
//     projection of the original boundary onto the alive set, and ∂∘∂ = 0
//     is preserved, so the survivors form an S-complex with
//     H̃_*(survivors) = H̃_*(original).
//
// The surviving ("critical") cells feed the one column reduction (rankOf)
// through restricted boundary matrices, built in the column store of the
// field asked for (coreduced.rank); for pseudospheres and protocol complexes
// these are typically an order of magnitude smaller than the full
// boundary matrices, and in low dimensions usually empty.
type coreduced struct {
	c          *topology.Complex // the original complex, whose face table the pass reads
	dim        int               // dimension of the original complex
	components int               // connected components (b0 of the original)
	alive      []bool            // per entry: survived the pass
	aliveByDim [][]int32         // per dimension: surviving entries, ascending entry index
	col        []int32           // per entry: column index within its dimension's alive list (-1 if dead)
	removed    []int             // per dimension: cells eliminated (pairs + seed vertices)
}

// coreduceProbe is how many queue pops (or setup entries) are processed
// between cancellation probes.
const coreduceProbe = 4096

// coreduce runs the pass over c. It is deterministic: entries are seeded
// and paired in a fixed order, so critical-cell counts are stable across
// runs. A non-nil cancelled flag aborts the pass; ok is then false and
// the returned value must be discarded. It reads c's face table in place
// (topology.Complex.EntryFaces), filling it first if no earlier read did;
// the fill runs to completion.
func coreduce(c *topology.Complex, cancelled *atomic.Bool) (cr *coreduced, ok bool) {
	dim := c.Dim()
	n := c.EntryCount()
	cr = &coreduced{
		c:          c,
		dim:        dim,
		alive:      make([]bool, n),
		col:        make([]int32, n),
		aliveByDim: make([][]int32, dim+1),
		removed:    make([]int, dim+1),
	}
	if dim < 0 {
		return cr, true
	}
	fv := c.FVector()
	entryDim := make([]int8, n)
	for ei := 0; ei < n; ei++ {
		if cancelled != nil && ei%coreduceProbe == 0 && cancelled.Load() {
			return nil, false
		}
		entryDim[ei] = int8(c.EntryDim(int32(ei)))
		cr.alive[ei] = true
	}

	// Coboundary lists (CSR over the face table's incidence), and
	// per-entry count of still-alive faces.
	total := 0
	for d := 1; d <= dim; d++ {
		total += fv[d] * (d + 1)
	}
	cofCnt := make([]int32, n)
	for ei := 0; ei < n; ei++ {
		for _, f := range c.EntryFaces(int32(ei)) {
			cofCnt[f]++
		}
	}
	cofOff := make([]int32, n+1)
	for ei := 0; ei < n; ei++ {
		cofOff[ei+1] = cofOff[ei] + cofCnt[ei]
	}
	cofFlat := make([]int32, total)
	fill := make([]int32, n)
	copy(fill, cofOff[:n])
	bdCnt := make([]int32, n)
	for ei := 0; ei < n; ei++ {
		fs := c.EntryFaces(int32(ei))
		for _, f := range fs {
			cofFlat[fill[f]] = int32(ei)
			fill[f]++
		}
		bdCnt[ei] = int32(len(fs))
	}
	cofaces := func(ei int32) []int32 { return cofFlat[cofOff[ei]:cofOff[ei+1]] }

	// Components via union-find over vertex entries joined by edges.
	parent := make([]int32, n)
	for ei := range parent {
		parent[ei] = int32(ei)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for ei := 0; ei < n; ei++ {
		if entryDim[ei] == 1 {
			fs := c.EntryFaces(int32(ei))
			a, b := find(fs[0]), find(fs[1])
			if a != b {
				parent[a] = b
			}
		}
	}

	// Removal with coface bookkeeping; cells whose alive-boundary count
	// drops to exactly one become pairing candidates. The candidate queue
	// is FIFO: breadth-first pairing spreads the cascade evenly across the
	// complex, which on product-like complexes (pseudospheres are joins of
	// discrete sets) realizes the optimal matching — a depth-first order
	// provably strands whole dimensions mid-cascade on ψ(S^4;·). A cell
	// is queued when its count reaches exactly one, and counts only fall,
	// so each entry is queued at most once and n slots never grow.
	stack := make([]int32, 0, n)
	removeCell := func(x int32) {
		cr.alive[x] = false
		cr.removed[entryDim[x]]++
		for _, y := range cofaces(x) {
			if !cr.alive[y] {
				continue
			}
			bdCnt[y]--
			if bdCnt[y] == 1 {
				stack = append(stack, y)
			}
		}
	}

	// Seed: the lowest-index vertex of each component.
	seeded := make(map[int32]bool)
	for ei := 0; ei < n; ei++ {
		if entryDim[ei] != 0 {
			continue
		}
		root := find(int32(ei))
		if !seeded[root] {
			seeded[root] = true
			removeCell(int32(ei))
		}
	}
	cr.components = len(seeded)

	// Drain: eliminate coreduction pairs until none remain.
	steps := 0
	head := 0
	for head < len(stack) {
		y := stack[head]
		head++
		if !cr.alive[y] || bdCnt[y] != 1 {
			continue // stale queue record
		}
		var x int32 = -1
		for _, f := range c.EntryFaces(y) {
			if cr.alive[f] {
				x = f
				break
			}
		}
		if x < 0 {
			continue // unreachable: bdCnt said one alive face
		}
		removeCell(y)
		removeCell(x)
		if steps++; steps%coreduceProbe == 0 && cancelled != nil && cancelled.Load() {
			return nil, false
		}
	}

	// Index the critical cells: per-dimension column numbering in
	// ascending entry order (deterministic).
	for ei := range cr.col {
		cr.col[ei] = -1
	}
	for ei := 0; ei < n; ei++ {
		if cr.alive[ei] {
			d := entryDim[ei]
			cr.col[ei] = int32(len(cr.aliveByDim[d]))
			cr.aliveByDim[d] = append(cr.aliveByDim[d], int32(ei))
		}
	}
	return cr, true
}

// publish bumps the collapse counters on tr: totals plus per-dimension
// morse_removed.dN / morse_critical.dN, surfaced through /metrics.
func (cr *coreduced) publish(tr *obs.Tracker) {
	var removed, critical uint64
	for d := 0; d <= cr.dim; d++ {
		rem, crit := uint64(cr.removed[d]), uint64(len(cr.aliveByDim[d]))
		if rem > 0 {
			tr.Counter(fmt.Sprintf("morse_removed.d%d", d)).Add(rem)
		}
		if crit > 0 {
			tr.Counter(fmt.Sprintf("morse_critical.d%d", d)).Add(crit)
		}
		removed += rem
		critical += crit
	}
	tr.Counter("morse_removed").Add(removed)
	tr.Counter("morse_critical").Add(critical)
}

// criticalCount returns the number of surviving d-cells.
func (cr *coreduced) criticalCount(d int) int {
	if d < 0 || d > cr.dim {
		return 0
	}
	return len(cr.aliveByDim[d])
}

// rank reduces the restricted boundary matrix ∂_d over field p (a prime
// for GF(p), fieldQ for Q) in that field's column store.
func (cr *coreduced) rank(d int, p int64, cancelled *atomic.Bool) int {
	cols := cr.aliveByDim[d]
	if p == 2 {
		m := &sparseZ2Matrix{rows: cr.criticalCount(d - 1), cols: make([][]int, len(cols))}
		for j, ei := range cols {
			faces := cr.c.EntryFaces(ei)
			col := make([]int, 0, len(faces))
			for _, f := range faces {
				if cr.alive[f] {
					col = append(col, int(cr.col[f]))
				}
			}
			m.cols[j] = normalizeColumn(col)
		}
		return rankOf(m, cancelled)
	}
	// Dead faces are skipped but keep their vertex-drop position, so the
	// surviving coefficients are exactly the original (-1)^i signs: the
	// coreduction invariant that makes the restriction exact.
	m := &coefMatrix{p: p, cols: make([]coefColumn, len(cols))}
	for j, ei := range cols {
		faces := cr.c.EntryFaces(ei)
		col := coefColumn{rows: make([]int, 0, len(faces)), vals: make([]int64, 0, len(faces))}
		sign := int64(1)
		for _, f := range faces {
			if cr.alive[f] {
				row, v := int(cr.col[f]), sign
				if v < 0 && p > 0 {
					v = p - 1
				}
				// Insertion sort by row: a column has at most d+1 entries.
				i := len(col.rows)
				col.rows = append(col.rows, 0)
				col.vals = append(col.vals, 0)
				for ; i > 0 && col.rows[i-1] > row; i-- {
					col.rows[i], col.vals[i] = col.rows[i-1], col.vals[i-1]
				}
				col.rows[i], col.vals[i] = row, v
			}
			sign = -sign
		}
		m.cols[j] = col
	}
	return m.rank(cancelled, func() [][]int64 { return cr.signedBoundary(d) })
}

// signedBoundary builds the restricted integer boundary matrix ∂_d as
// dense rows of {-1, 0, +1}, rationalRank's input when the Q store
// overflows.
func (cr *coreduced) signedBoundary(d int) [][]int64 {
	rows, cols := cr.criticalCount(d-1), cr.aliveByDim[d]
	a := make([][]int64, rows)
	for i := range a {
		a[i] = make([]int64, len(cols))
	}
	for j, ei := range cols {
		sign := int64(1)
		for _, f := range cr.c.EntryFaces(ei) {
			if cr.alive[f] {
				a[cr.col[f]][j] = sign
			}
			sign = -sign
		}
	}
	return a
}

// betti assembles the original complex's Betti numbers 0..top from the
// restricted ranks: b0 is the component count (the seeds traded it for
// reduced homology), and above that the usual rank-nullity bookkeeping
// runs on critical-cell counts.
func (cr *coreduced) betti(ranks []int, top int) []int {
	betti := make([]int, top+1)
	betti[0] = cr.components
	for d := 1; d <= top; d++ {
		betti[d] = cr.criticalCount(d) - ranks[d] - ranks[d+1]
	}
	return betti
}

// BettiGFpMorse is BettiGFp with the coreduction pass in front: identical
// results (the differential suite pins this), computed serially by
// Engine.BettiGFpCtx. Like BettiGFp it requires p prime and rejects p
// outside [2, 2^31).
func BettiGFpMorse(c *topology.Complex, p int64) ([]int, error) {
	return NewEngine(1, nil).BettiGFpCtx(context.Background(), c, p)
}

// BettiQMorse is BettiQ with the coreduction pass in front: exact
// rational Betti numbers, computed serially by Engine.BettiQCtx.
func BettiQMorse(c *topology.Complex) []int {
	betti, _ := NewEngine(1, nil).BettiQCtx(context.Background(), c)
	return betti
}
