package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// The interned Complex must agree with the string-keyed definition of a
// complex on every observable: canonical hash, f-vector, size, dimension,
// membership and simplex order. These tests drive both with the same
// simplex streams and compare.

// KeySet is that definition: the Key of every nonempty face of the added
// simplexes, found by subset enumeration, with no Complex involved. It is
// exported for the external test package, which checks model complexes.
type KeySet map[string]Simplex

// Add adds every nonempty face of s.
func (ks KeySet) Add(s Simplex) {
	for mask := 1; mask < 1<<len(s); mask++ {
		var face Simplex
		for i, v := range s {
			if mask&(1<<i) != 0 {
				face = append(face, v)
			}
		}
		ks[face.Key()] = face
	}
}

// Has reports whether s is in the set.
func (ks KeySet) Has(s Simplex) bool {
	_, ok := ks[s.Key()]
	return ok
}

// Dim is the largest simplex dimension (-1 if empty).
func (ks KeySet) Dim() int {
	return len(ks.FVector()) - 1
}

// FVector counts the simplexes of each dimension (nil if empty).
func (ks KeySet) FVector() []int {
	var fv []int
	for _, s := range ks {
		for len(fv) < len(s) {
			fv = append(fv, 0)
		}
		fv[s.Dim()]++
	}
	return fv
}

// CanonicalHash is SHA-256 over the sorted keys, each written as
// "len:key;": the digest's definition.
func (ks KeySet) CanonicalHash() string {
	keys := make([]string, 0, len(ks))
	for k := range ks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, strconv.Itoa(len(k))+":"+k+";")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// All returns every simplex ordered by length, then key: the order
// AllSimplices defines.
func (ks KeySet) All() []Simplex {
	out := make([]Simplex, 0, len(ks))
	for _, s := range ks {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// Complex rebuilds an interned Complex holding exactly the set, through
// AddClosed (the set is face-closed).
func (ks KeySet) Complex() *Complex {
	c := NewComplex()
	for _, s := range ks.All() {
		c.AddClosed(s)
	}
	return c
}

func randomSimplex(rng *rand.Rand, maxP int, labels []string) Simplex {
	n := 1 + rng.Intn(maxP)
	used := make(map[int]bool)
	verts := make([]Vertex, 0, n)
	for len(verts) < n {
		p := rng.Intn(maxP)
		if used[p] {
			continue
		}
		used[p] = true
		verts = append(verts, Vertex{P: p, Label: labels[rng.Intn(len(labels))]})
	}
	return mustSimplex(verts...)
}

func compareRepresentations(t *testing.T, ctx string, c *Complex, ref KeySet) {
	t.Helper()
	if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
		t.Fatalf("%s: CanonicalHash %s != reference %s", ctx, got, want)
	}
	if got, want := c.Size(), len(ref); got != want {
		t.Fatalf("%s: Size %d != reference %d", ctx, got, want)
	}
	if got, want := c.Dim(), ref.Dim(); got != want {
		t.Fatalf("%s: Dim %d != reference %d", ctx, got, want)
	}
	gotFV, wantFV := c.FVector(), ref.FVector()
	if len(gotFV) != len(wantFV) {
		t.Fatalf("%s: f-vector %v != reference %v", ctx, gotFV, wantFV)
	}
	for d := range gotFV {
		if gotFV[d] != wantFV[d] {
			t.Fatalf("%s: f-vector %v != reference %v", ctx, gotFV, wantFV)
		}
	}
	for _, s := range ref {
		if !c.Has(s) {
			t.Fatalf("%s: interned complex missing %v", ctx, s)
		}
	}
}

func TestDifferentialSeededRandom(t *testing.T) {
	labels := []string{"a", "b", "c", "x", "y"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewComplex()
		ref := KeySet{}
		for i := 0; i < 60; i++ {
			s := randomSimplex(rng, 6, labels)
			c.Add(s)
			ref.Add(s)
		}
		compareRepresentations(t, fmt.Sprintf("seed %d", seed), c, ref)
		// Membership probes for absent simplexes must agree too.
		for i := 0; i < 40; i++ {
			s := randomSimplex(rng, 6, labels)
			if c.Has(s) != ref.Has(s) {
				t.Fatalf("seed %d: Has(%v) = %v, reference %v", seed, s, c.Has(s), ref.Has(s))
			}
		}
	}
}

func TestDifferentialUnionIntersection(t *testing.T) {
	labels := []string{"0", "1"}
	rng := rand.New(rand.NewSource(42))
	a, b := NewComplex(), NewComplex()
	refA, refB := KeySet{}, KeySet{}
	for i := 0; i < 30; i++ {
		s := randomSimplex(rng, 5, labels)
		if i%2 == 0 {
			a.Add(s)
			refA.Add(s)
		} else {
			b.Add(s)
			refB.Add(s)
		}
	}
	u := a.Union(b)
	refU := maps.Clone(refA)
	maps.Copy(refU, refB)
	compareRepresentations(t, "union", u, refU)

	inter := u.Intersection(a)
	if inter.CanonicalHash() != a.CanonicalHash() {
		t.Fatal("(A union B) intersect A != A")
	}
}

func TestReferenceToComplexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := KeySet{}
	for i := 0; i < 25; i++ {
		ref.Add(randomSimplex(rng, 5, []string{"p", "q", "r"}))
	}
	c := ref.Complex()
	compareRepresentations(t, "round-trip", c, ref)
}

// FuzzComplexAdd drives the intern/hash path with arbitrary vertex streams
// and cross-checks every observable against the key-set definition. The
// encoding of the fuzz input: each byte pair is one vertex (process id,
// label selector); a zero process byte terminates the current simplex.
func FuzzComplexAdd(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 2, 0, 0, 2, 1, 4, 3})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 0, 1, 3})
	f.Add([]byte{})
	// A larger seed: 60 simplexes of up to 8 vertices on distinct
	// processes, enough entries to double the simplex index several times.
	rng := rand.New(rand.NewSource(3))
	var big []byte
	for i := 0; i < 60; i++ {
		for _, p := range rng.Perm(28)[:1+rng.Intn(8)] {
			big = append(big, byte(1+p), byte(rng.Intn(4)))
		}
		big = append(big, 0, 0)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		labels := []string{"a", "b", "c", "d"}
		c := NewComplex()
		ref := KeySet{}
		var verts []Vertex
		flush := func() {
			if len(verts) == 0 {
				return
			}
			s, err := NewSimplex(verts...)
			verts = verts[:0]
			if err != nil {
				return // non-chromatic draw; both builders reject via NewSimplex
			}
			c.Add(s)
			ref.Add(s)
		}
		for i := 0; i+1 < len(data); i += 2 {
			p := int(data[i])
			if p == 0 {
				flush()
				continue
			}
			verts = append(verts, Vertex{P: p % 29, Label: labels[int(data[i+1])%len(labels)]})
		}
		flush()
		if c.CanonicalHash() != ref.CanonicalHash() {
			t.Fatalf("hash mismatch: interned %s reference %s", c.CanonicalHash(), ref.CanonicalHash())
		}
		if c.Size() != len(ref) || c.Dim() != ref.Dim() {
			t.Fatalf("size/dim mismatch: (%d,%d) vs (%d,%d)", c.Size(), c.Dim(), len(ref), ref.Dim())
		}
		for _, s := range ref {
			if !c.Has(s) {
				t.Fatalf("missing %v", s)
			}
		}
	})
}
