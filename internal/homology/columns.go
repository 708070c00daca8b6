package homology

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// colStore is the column store the low-index reduction (rankOf) runs
// on. There is one store per coefficient field: sparseZ2Matrix for
// GF(2), and coefMatrix for GF(p) and for Q. lowOf returns the highest
// row index with a nonzero entry in column j (-1 for a zero column);
// addInto cancels column dst's low entry against column src, whose low
// entry sits in the same row.
type colStore interface {
	numCols() int
	lowOf(j int) int
	addInto(dst, src int)
}

func (m *sparseZ2Matrix) numCols() int { return len(m.cols) }

func (m *sparseZ2Matrix) lowOf(j int) int {
	col := m.cols[j]
	if len(col) == 0 {
		return -1
	}
	return col[len(col)-1]
}

func (m *sparseZ2Matrix) addInto(dst, src int) {
	m.cols[dst] = symDiff(m.cols[dst], m.cols[src])
}

// fieldQ is the field argument that selects Q; any other value is the
// prime p of GF(p), and p = 2 runs sparseZ2Matrix.
const fieldQ int64 = 0

// coefColumn is a sparse column with coefficients: ascending row
// indices and the matching nonzero entries.
type coefColumn struct {
	rows []int
	vals []int64
}

// coefMatrix is a sparse matrix over GF(p) for a prime p < 2^31, with
// entries in [1, p), or over Q (p = fieldQ), with int64 integer entries.
//
// Both fields cancel fraction-free: addInto replaces dst by b·dst − a·src,
// where a and b are the low entries of dst and src. Scaling a column by
// a nonzero constant does not change the span of the columns, so the
// rank is exact with no inverse ever taken. Over Q the result is divided
// by the gcd of its entries to keep them small. If a Q combination
// overflows int64, overflow is set and every column reads as zero from
// then on, so the reduction drains at once; rank then recomputes the
// rank exactly from the dense matrix.
type coefMatrix struct {
	p        int64
	cols     []coefColumn
	overflow bool
}

func (m *coefMatrix) numCols() int { return len(m.cols) }

func (m *coefMatrix) lowOf(j int) int {
	rows := m.cols[j].rows
	if len(rows) == 0 || m.overflow {
		return -1
	}
	return rows[len(rows)-1]
}

func (m *coefMatrix) addInto(dst, src int) {
	x, y := m.cols[dst], m.cols[src]
	a, b := x.vals[len(x.vals)-1], y.vals[len(y.vals)-1]
	if m.p > 0 {
		m.cols[dst], _ = lincomb(x, y, b, m.p-a, m.p)
		return
	}
	g := gcd(a, b)
	out, ok := lincomb(x, y, b/g, -a/g, 0)
	if !ok {
		m.overflow = true
		m.cols[dst] = coefColumn{}
		return
	}
	g = 0
	for _, v := range out.vals {
		if g = gcd(g, v); g == 1 {
			break
		}
	}
	if g > 1 {
		for i := range out.vals {
			out.vals[i] /= g
		}
	}
	m.cols[dst] = out
}

// rank is rankOf on m, plus the Q overflow fallback: when a combination
// overflowed int64, the rank is recomputed by the exact rationalRank
// over dense(), which must return the matrix m held before reduction.
func (m *coefMatrix) rank(cancelled *atomic.Bool, dense func() [][]int64) int {
	r := rankOf(m, cancelled)
	if m.overflow {
		return rationalRank(dense(), cancelled)
	}
	return r
}

// lincomb returns a·x + b·y, dropping zero entries. With p > 0 the
// entries are reduced mod p; a, b and every entry must then lie in
// [0, p) with p < 2^31, so a·u + b·v stays below 2^63. With p = 0 the
// arithmetic is exact, and ok is false when an entry overflows int64.
func lincomb(x, y coefColumn, a, b, p int64) (out coefColumn, ok bool) {
	n := len(x.rows) + len(y.rows)
	out = coefColumn{rows: make([]int, 0, n), vals: make([]int64, 0, n)}
	i, j := 0, 0
	for i < len(x.rows) || j < len(y.rows) {
		var row int
		var u, v int64
		switch {
		case j == len(y.rows) || i < len(x.rows) && x.rows[i] < y.rows[j]:
			row, u = x.rows[i], x.vals[i]
			i++
		case i == len(x.rows) || y.rows[j] < x.rows[i]:
			row, v = y.rows[j], y.vals[j]
			j++
		default:
			row, u, v = x.rows[i], x.vals[i], y.vals[j]
			i++
			j++
		}
		var e int64
		if p > 0 {
			e = (a*u + b*v) % p
		} else if e, ok = mulAdd(a, u, b, v); !ok {
			return out, false
		}
		if e != 0 {
			out.rows = append(out.rows, row)
			out.vals = append(out.vals, e)
		}
	}
	return out, true
}

// mulAdd returns a·u + b·v and whether it is exact. MinInt64 counts as
// an overflow, so stored entries can always be negated.
func mulAdd(a, u, b, v int64) (int64, bool) {
	x, okx := mul64(a, u)
	y, oky := mul64(b, v)
	s := x + y
	// The sum overflowed iff x and y share a sign that s lacks.
	return s, okx && oky && (x^s)&(y^s) >= 0 && s != math.MinInt64
}

// mul64 returns a·b and whether its magnitude is at most MaxInt64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs(a), uabs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

func uabs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

// gcd returns the nonnegative gcd of a and b; gcd(0, 0) = 0. Neither
// may be MinInt64.
func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
