package roundop

import (
	"math"
	"testing"

	"pseudosphere/internal/pc"
)

// TestSaturatingArithmetic pins the two saturating operations pricing
// runs on: satAdd, and the pc.SatMul that ProductSize and Facets use.
func TestSaturatingArithmetic(t *testing.T) {
	const big = int64(1) << 62
	if v := pc.SatMul(big, 4); v != math.MaxInt64 {
		t.Fatalf("SatMul overflowed to %d", v)
	}
	if v := satAdd(big, big); v != math.MaxInt64 {
		t.Fatalf("satAdd overflowed to %d", v)
	}
	if v := pc.SatMul(0, big); v != 0 {
		t.Fatalf("SatMul(0, x) = %d", v)
	}
	if v := pc.SatMul(3, 5); v != 15 {
		t.Fatalf("SatMul(3, 5) = %d", v)
	}
}
