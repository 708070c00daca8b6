package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestEntryFacesDropOrder pins the contract the homology engine's signed
// boundary builders rely on: the i-th face index is the face omitting
// the i-th vertex, i.e. EntrySimplex(faces[i]) == s.Face(i).
func TestEntryFacesDropOrder(t *testing.T) {
	c := ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"), v(3, "d")),
		mustSimplex(v(2, "x"), v(4, "y")),
	)
	for ei := int32(0); ei < int32(c.EntryCount()); ei++ {
		s := c.EntrySimplex(ei)
		if got, want := c.EntryDim(ei), len(s)-1; got != want {
			t.Fatalf("entry %d: EntryDim = %d, want %d", ei, got, want)
		}
		buf := c.EntryFaces(ei)
		if len(s) == 1 {
			if len(buf) != 0 {
				t.Fatalf("vertex entry %d: EntryFaces = %v, want none", ei, buf)
			}
			continue
		}
		if len(buf) != len(s) {
			t.Fatalf("entry %d (%v): %d faces, want %d", ei, s, len(buf), len(s))
		}
		for i, fi := range buf {
			if fi < 0 || fi >= int32(c.EntryCount()) {
				t.Fatalf("entry %d face %d: index %d out of range", ei, i, fi)
			}
			want := s.Face(i)
			if got := c.EntrySimplex(fi); got.Key() != want.Key() {
				t.Fatalf("entry %d (%v) face %d: got %v, want %v", ei, s, i, got, want)
			}
		}
	}
}

// TestEntryFacesCoversBoundary checks that per-dimension entry counts
// agree with the f-vector and that every codim-1 simplex is reachable as
// a face of something one dimension up.
func TestEntryFacesCoversBoundary(t *testing.T) {
	c := ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b"), v(2, "c")),
		mustSimplex(v(0, "a"), v(3, "d")),
	)
	fv := c.FVector()
	byDim := make([]int, c.Dim()+1)
	seen := make(map[int32]bool)
	for ei := int32(0); ei < int32(c.EntryCount()); ei++ {
		byDim[c.EntryDim(ei)]++
		for _, fi := range c.EntryFaces(ei) {
			seen[fi] = true
		}
	}
	for d, want := range fv {
		if byDim[d] != want {
			t.Fatalf("dim %d: %d entries, f-vector says %d", d, byDim[d], want)
		}
	}
	// Everything except the facets must appear as somebody's face.
	wantSeen := c.Size() - len(c.Facets())
	if len(seen) != wantSeen {
		t.Fatalf("%d distinct faces seen, want %d", len(seen), wantSeen)
	}
}

// TestEntryFacesConcurrent exercises the documented reader guarantee
// under the race detector: goroutines reading a shared complex that no
// one has read before, so they race to fill its face table and its hash
// memo, each starting from a different reader. Every one must see what a
// clone answers alone. The second complex is a pseudosphere appended
// through AddNewFaces, whose index lacks every entry, so the readers also
// race to place it.
func TestEntryFacesConcurrent(t *testing.T) {
	sphere := NewComplex()
	ids := make([]int32, 3)
	for f := 0; f < 27; f++ {
		var need uint32
		for i, d := 0, f; i < 3; i, d = i+1, d/3 {
			ids[2-i], _ = sphere.Intern(v(2-i, fmt.Sprint(d%3)))
			if d%3 != 0 {
				need |= 1 << (2 - i)
			}
		}
		sphere.AddNewFaces(ids, need)
	}
	for _, c := range []*Complex{ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"), v(3, "d"), v(4, "e")),
		mustSimplex(v(0, "x"), v(1, "b"), v(2, "y")),
	), sphere} {
		readConcurrently(t, c)
	}
}

// readConcurrently runs TestEntryFacesConcurrent's readers on c.
func readConcurrently(t *testing.T, c *Complex) {
	t.Helper()
	ref := c.Clone()
	wantFaces := make([][]int32, ref.EntryCount())
	for ei := range wantFaces {
		wantFaces[ei] = slices.Clone(ref.EntryFaces(int32(ei)))
	}
	wantFacets, wantHash := ref.Facets(), ref.CanonicalHash()
	readers := []func() error{
		func() error {
			for ei, want := range wantFaces {
				if got := c.EntryFaces(int32(ei)); !slices.Equal(got, want) {
					return fmt.Errorf("EntryFaces(%d) = %v, want %v", ei, got, want)
				}
			}
			return nil
		},
		func() error {
			if got := c.FacetCount(); got != len(wantFacets) {
				return fmt.Errorf("FacetCount = %d, want %d", got, len(wantFacets))
			}
			return nil
		},
		func() error {
			if got := c.Facets(); fmt.Sprint(got) != fmt.Sprint(wantFacets) {
				return fmt.Errorf("Facets = %v, want %v", got, wantFacets)
			}
			return nil
		},
		func() error {
			if got := c.CanonicalHash(); got != wantHash {
				return fmt.Errorf("CanonicalHash = %s, want %s", got, wantHash)
			}
			return nil
		},
		func() error {
			for ei := range ref.EntryCount() {
				if s := ref.EntrySimplex(int32(ei)); !c.Has(s) {
					return fmt.Errorf("Has(%v) = false", s)
				}
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range readers {
				if err := readers[(g+i)%len(readers)](); err != nil {
					t.Errorf("reader %d: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
