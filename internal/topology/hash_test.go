package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func hv(p int, label string) Vertex { return Vertex{P: p, Label: label} }

func TestCanonicalHashEqualComplexesAgree(t *testing.T) {
	build := func() *Complex {
		c := NewComplex()
		c.Add(mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")))
		c.Add(mustSimplex(hv(0, "a"), hv(1, "x")))
		return c
	}
	a, b := build(), build()
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("equal complexes hash differently")
	}
	// Insertion order must not matter.
	d := NewComplex()
	d.Add(mustSimplex(hv(0, "a"), hv(1, "x")))
	d.Add(mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")))
	if a.CanonicalHash() != d.CanonicalHash() {
		t.Fatal("insertion order changed the hash")
	}
	if a.CanonicalHash() != a.Clone().CanonicalHash() {
		t.Fatal("clone hashes differently")
	}
}

func TestCanonicalHashDistinguishes(t *testing.T) {
	tri := ComplexOf(mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")))
	hollow := NewComplex()
	for i := 0; i < 3; i++ {
		hollow.Add(mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")).Face(i))
	}
	if tri.CanonicalHash() == hollow.CanonicalHash() {
		t.Fatal("solid and hollow triangle hash equal")
	}
	if tri.CanonicalHash() == tri.Skeleton(1).CanonicalHash() {
		t.Fatal("skeleton hashes equal to the full complex")
	}
	if NewComplex().CanonicalHash() == tri.CanonicalHash() {
		t.Fatal("empty complex collides with a triangle")
	}
}

// TestFacetEncodingLengthPrefixed guards the anti-collision property: a
// label containing the separator characters cannot make two different
// complexes encode identically.
func TestFacetEncodingLengthPrefixed(t *testing.T) {
	a := ComplexOf(mustSimplex(hv(0, "x;1:y")))
	b := ComplexOf(mustSimplex(hv(0, "x")), mustSimplex(hv(1, "y")))
	if a.FacetEncoding() == b.FacetEncoding() {
		t.Fatal("separator injection collided two encodings")
	}
	if !strings.Contains(a.FacetEncoding(), ":") {
		t.Fatal("encoding missing length prefix")
	}
}

func TestFacetEncodingMatchesEqual(t *testing.T) {
	a := ComplexOf(mustSimplex(hv(0, "a"), hv(1, "b")), mustSimplex(hv(1, "b"), hv(2, "c")))
	b := a.Union(NewComplex())
	if !a.Equal(b) || a.FacetEncoding() != b.FacetEncoding() {
		t.Fatal("Equal complexes must share a facet encoding")
	}
}

// TestCanonicalHashMemoInvalidation: every mutation of a hashed complex
// drops the memoized digest, so the next call agrees with a fresh
// complex built to the same simplex set.
func TestCanonicalHashMemoInvalidation(t *testing.T) {
	fresh := func(ss ...Simplex) string { return ComplexOf(ss...).CanonicalHash() }
	edge := mustSimplex(hv(0, "a"), hv(1, "b"))
	tri := mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c"))
	other := mustSimplex(hv(0, "x"), hv(1, "y"))

	c := ComplexOf(edge)
	before := c.CanonicalHash()
	c.Add(tri)
	if got := c.CanonicalHash(); got == before || got != fresh(tri) {
		t.Fatalf("after Add: hash %s, want %s (was %s)", got, fresh(tri), before)
	}

	before = c.CanonicalHash()
	c.AddClosed(mustSimplex(hv(3, "d")))
	if got, want := c.CanonicalHash(), fresh(tri, mustSimplex(hv(3, "d"))); got == before || got != want {
		t.Fatalf("after AddClosed: hash %s, want %s", got, want)
	}

	before = c.CanonicalHash()
	c.UnionWith(ComplexOf(other))
	if got, want := c.CanonicalHash(), fresh(tri, mustSimplex(hv(3, "d")), other); got == before || got != want {
		t.Fatalf("after UnionWith: hash %s, want %s", got, want)
	}

	// Re-adding present simplexes inserts nothing and keeps the digest.
	before = c.CanonicalHash()
	c.Add(edge)
	c.UnionWith(ComplexOf(other))
	if got := c.CanonicalHash(); got != before {
		t.Fatalf("no-op mutations changed the hash: %s -> %s", before, got)
	}
}

// TestCanonicalHashCloneDoesNotShareMemo: mutating a clone of a hashed
// complex leaves the original's digest correct, and the clone's digest
// tracks its own contents.
func TestCanonicalHashCloneDoesNotShareMemo(t *testing.T) {
	tri := mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c"))
	orig := ComplexOf(tri)
	want := orig.CanonicalHash()
	clone := orig.Clone()
	if clone.CanonicalHash() != want {
		t.Fatal("clone of a hashed complex hashes differently")
	}
	clone.Add(mustSimplex(hv(0, "z"), hv(3, "w")))
	if got := orig.CanonicalHash(); got != want {
		t.Fatalf("mutating the clone changed the original's hash: %s -> %s", want, got)
	}
	if got, fresh := clone.CanonicalHash(), ComplexOf(tri, mustSimplex(hv(0, "z"), hv(3, "w"))).CanonicalHash(); got != fresh {
		t.Fatalf("clone hash %s, want %s", got, fresh)
	}
}

// TestCanonicalHashConcurrentReaders runs many first-time hashers of one
// shared complex at once, as the homology engine does; under -race it
// checks the memo's publication.
func TestCanonicalHashConcurrentReaders(t *testing.T) {
	c := NewComplex()
	for i := 0; i < 6; i++ {
		c.Add(mustSimplex(hv(0, string(rune('a'+i))), hv(1, "b"), hv(2, string(rune('c'+i%2)))))
	}
	want := c.Clone().CanonicalHash()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = c.CanonicalHash()
		}(g)
	}
	wg.Wait()
	for g, h := range got {
		if h != want {
			t.Fatalf("reader %d: hash %s, want %s", g, h, want)
		}
	}
}

// TestKeyOrderMatchesStringKeys pins the key order every sorted output
// and the digest depend on, against the string-keyed definition, on random
// complexes whose labels mix separator bytes and prefixes of each other:
// those defeat the vertex-rank comparison and must take the rendered-key
// path, and the rest take the rank path.
func TestKeyOrderMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabets := []string{"ab", "ab|:!~(", "ab0"}
	for trial := 0; trial < 300; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		label := func() string {
			b := make([]byte, 1+rng.Intn(3))
			for i := range b {
				b[i] = alpha[rng.Intn(len(alpha))]
			}
			return string(b)
		}
		c, ref := NewComplex(), KeySet{}
		for k := 0; k < 1+rng.Intn(5); k++ {
			var vs []Vertex
			for p := 0; p < 12; p++ {
				if rng.Intn(3) == 0 {
					vs = append(vs, hv(p, label()))
				}
			}
			if len(vs) == 0 {
				continue
			}
			s := mustSimplex(vs...)
			c.Add(s)
			ref.Add(s)
		}
		if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
			t.Fatalf("trial %d: hash %s, reference %s", trial, got, want)
		}
		all, wantAll := c.AllSimplices(), ref.All()
		if len(all) != len(wantAll) {
			t.Fatalf("trial %d: %d simplexes, reference %d", trial, len(all), len(wantAll))
		}
		for i := range all {
			if all[i].Key() != wantAll[i].Key() {
				t.Fatalf("trial %d: AllSimplices[%d] = %v, reference %v", trial, i, all[i], wantAll[i])
			}
		}
		facets := c.Facets()
		if !sort.SliceIsSorted(facets, func(i, j int) bool {
			if len(facets[i]) != len(facets[j]) {
				return len(facets[i]) < len(facets[j])
			}
			return facets[i].Key() < facets[j].Key()
		}) {
			t.Fatalf("trial %d: facets out of (dimension, key) order: %v", trial, facets)
		}
		for d := 0; d <= c.Dim(); d++ {
			ss := c.Simplices(d)
			if !sort.SliceIsSorted(ss, func(i, j int) bool { return ss[i].Key() < ss[j].Key() }) {
				t.Fatalf("trial %d: Simplices(%d) out of key order: %v", trial, d, ss)
			}
		}
	}
}

// TestKeyOrderManyVertices covers the rank comparator that sortByKey
// falls back on when an entry's packed ranks need more than 64 bits:
// 8-vertex simplexes over several hundred vertices, so a rank field needs
// 9 bits. Orders and digests must match the string-keyed definition
// there too.
func TestKeyOrderManyVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		c, ref := NewComplex(), KeySet{}
		for k := 0; k < 60; k++ {
			var vs []Vertex
			for p := 0; p < 8; p++ {
				vs = append(vs, hv(p, fmt.Sprintf("%03d", rng.Intn(100))))
			}
			s := mustSimplex(vs...)
			c.Add(s)
			ref.Add(s)
		}
		ranks, ok := c.keyRanks()
		if !ok || c.sortPacked([]int32{0}, ranks, true) {
			t.Fatalf("trial %d: %d vertices, want the rank comparator, not the packed sort", trial, c.VertexCount())
		}
		if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
			t.Fatalf("trial %d: hash %s, reference %s", trial, got, want)
		}
		all, wantAll := c.AllSimplices(), ref.All()
		for i := range all {
			if all[i].Key() != wantAll[i].Key() {
				t.Fatalf("trial %d: AllSimplices[%d] = %v, reference %v", trial, i, all[i], wantAll[i])
			}
		}
	}
}
