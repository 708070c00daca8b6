package homology

import (
	"sort"
	"testing"
)

// sortedSetFromBytes turns fuzzer bytes into a sorted duplicate-free int
// slice — the representation invariant symDiff expects of its inputs.
func sortedSetFromBytes(bs []byte, bound int) []int {
	seen := make(map[int]bool, len(bs))
	for _, b := range bs {
		seen[int(b)%bound] = true
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// FuzzSymDiff diffs the merge-based symDiff against a map-based oracle
// and checks the output invariants (sorted, duplicate-free).
func FuzzSymDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 7}, []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := sortedSetFromBytes(ab, 256)
		b := sortedSetFromBytes(bb, 256)
		got := symDiff(a, b)

		oracle := make(map[int]bool)
		for _, x := range a {
			oracle[x] = !oracle[x]
		}
		for _, x := range b {
			oracle[x] = !oracle[x]
		}
		want := make([]int, 0, len(oracle))
		for x, on := range oracle {
			if on {
				want = append(want, x)
			}
		}
		sort.Ints(want)

		if len(got) != len(want) {
			t.Fatalf("symDiff(%v, %v) = %v, want %v", a, b, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("symDiff(%v, %v) = %v, want %v", a, b, got, want)
			}
			if i > 0 && got[i] <= got[i-1] {
				t.Fatalf("symDiff output not strictly increasing: %v", got)
			}
		}
	})
}

// FuzzFieldColumnOps checks GF(p) and Q column addition against a dense
// oracle. Given columns x and y sharing their low row, with low entries
// a and b, addInto must leave b·x − a·y: reduced mod p over GF(p), and
// over Q a positive multiple of it with coprime entries. The result must
// be sorted and free of zeros, with the shared low entry cancelled.
func FuzzFieldColumnOps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint16(64))
	f.Add([]byte{}, []byte{63, 64, 65}, uint16(130))
	f.Add([]byte{0}, []byte{0}, uint16(1))
	f.Fuzz(func(t *testing.T, xb, yb []byte, rows16 uint16) {
		rows := int(rows16)%512 + 1
		x, y := make([]int64, rows), make([]int64, rows)
		for i, b := range xb {
			x[int(b)%rows] += int64(i%7) - 3
		}
		for i, b := range yb {
			y[int(b)%rows] += int64(i%7) - 3
		}
		// addInto's precondition: both low entries sit in row low and are
		// units in every field below, so coprime to 6.
		low := rows - 1
		for low > 0 && x[low] == 0 {
			low--
		}
		for i := low + 1; i < rows; i++ {
			y[i] = 0
		}
		if x[low]%2 == 0 || x[low]%3 == 0 {
			x[low] = 6*x[low] + 1
		}
		if y[low]%2 == 0 || y[low]%3 == 0 {
			y[low] = 6*y[low] - 1
		}
		dense := make([][]int64, rows)
		for i := range dense {
			dense[i] = []int64{x[i], y[i]}
		}
		for _, p := range []int64{2, 3, 1048573, 1<<31 - 1, fieldQ} {
			m := coefFromDense(p, dense)
			m.addInto(0, 1)
			got := make([]int64, rows)
			col := m.cols[0]
			for k, r := range col.rows {
				if col.vals[k] == 0 || (k > 0 && r <= col.rows[k-1]) || (p > 0 && col.vals[k] >= p) {
					t.Fatalf("p=%d: malformed column %+v", p, col)
				}
				got[r] = col.vals[k]
			}
			if m.lowOf(0) >= low {
				t.Fatalf("p=%d: low %d not cancelled: %v", p, low, got)
			}
			if p > 0 {
				mod := func(v int64) int64 { return (v%p + p) % p }
				a, b := mod(x[low]), mod(y[low])
				for i := range got {
					if want := mod(b*mod(x[i]) - a*mod(y[i])); got[i] != want {
						t.Fatalf("p=%d row %d: got %d, want %d (x=%v y=%v)", p, i, got[i], want, x, y)
					}
				}
				continue
			}
			want := make([]int64, rows)
			pivot := -1
			for i := range want {
				if want[i] = y[low]*x[i] - x[low]*y[i]; want[i] != 0 {
					pivot = i
				}
			}
			if pivot < 0 {
				if len(col.rows) != 0 {
					t.Fatalf("Q: got %v, want the zero column", got)
				}
				continue
			}
			content := int64(0)
			for i := range got {
				if got[i]*want[pivot] != want[i]*got[pivot] {
					t.Fatalf("Q: got %v, not proportional to %v", got, want)
				}
				content = gcd(content, got[i])
			}
			if got[pivot]*want[pivot] <= 0 || content != 1 {
				t.Fatalf("Q: got %v, want a positive multiple of %v with coprime entries", got, want)
			}
		}
	})
}
