package pc

import (
	"math"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Facet enumeration over option products.
//
// Every model constructor enumerates the cartesian product of per-position
// option lists: each participant (or survivor) independently picks one
// admissible heard set, and each product point is one facet of the round
// complex. The constructors build one Option per (position, choice) — so
// a view and its label are built once per option rather than once per
// facet — and then walk the product with the helpers below.
// Linear indexing (DecodeIndex) lets a build cut the product space into
// index-range shards without materializing it.

// Option is one admissible next-view choice for a position in a facet
// enumeration: the view together with its pre-encoded complex vertex.
type Option struct {
	View *views.View
	Vert topology.Vertex
}

// NewOption pairs v with its protocol-complex vertex. A view is encoded
// when it is built and never changes, so sharing the returned Option
// across facets and, read-only, across goroutines costs nothing.
func NewOption(v *views.View) Option {
	return Option{View: v, Vert: topology.Vertex{P: v.P, Label: v.Encode()}}
}

// ProductSize returns the number of facets in the product of the option
// lists (zero if any list is empty; one for an empty product), saturating
// at math.MaxInt64.
func ProductSize(opts [][]Option) int64 {
	total := int64(1)
	for _, o := range opts {
		total = SatMul(total, int64(len(o)))
	}
	return total
}

// SatMul returns a·b for nonnegative a and b, saturating at math.MaxInt64
// instead of wrapping. Sizes and prices multiply through it, so an absurd
// request prices as huge, never as small or negative.
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// SatPow returns base^exp for nonnegative base and exp, saturating at
// math.MaxInt64 as SatMul does.
func SatPow(base int64, exp int) int64 {
	v := int64(1)
	for range exp {
		v = SatMul(v, base)
	}
	return v
}

// DecodeIndex writes the mixed-radix digits of li into idx, last digit
// fastest — the same enumeration order the constructors' odometers use.
func DecodeIndex(idx []int, opts [][]Option, li int64) {
	for i := len(opts) - 1; i >= 0; i-- {
		s := int64(len(opts[i]))
		idx[i] = int(li % s)
		li /= s
	}
}

// Advance steps idx to the next point of the product (last digit fastest),
// reporting false after the last point.
func Advance(idx []int, opts [][]Option) bool {
	for j := len(idx) - 1; j >= 0; j-- {
		idx[j]++
		if idx[j] < len(opts[j]) {
			return true
		}
		idx[j] = 0
	}
	return false
}
