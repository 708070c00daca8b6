package topology

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// homeSlot is the index slot a probe for hash h starts from.
func (c *Complex) homeSlot(h uint64) uint64 { return h & uint64(len(c.index)-1) }

// lastSlotIDs returns k single-vertex id sequences, over vertices interned
// in c, whose probes start at the last slot of a minIndexSlots index.
func lastSlotIDs(t *testing.T, c *Complex, k int) [][]int32 {
	t.Helper()
	var out [][]int32
	for p := 0; len(out) < k; p++ {
		if p > 4096 {
			t.Fatal("no ids hash to the last slot")
		}
		ids := []int32{c.intern(Vertex{P: p, Label: "v"})}
		if hashIDs(ids)&(minIndexSlots-1) == minIndexSlots-1 {
			out = append(out, ids)
		}
	}
	return out
}

// TestIndexProbeWraps: an entry whose home is the last slot, already
// taken, lands in slot 0, and a find for it wraps there too. An absent
// sequence with the same home probes past both taken slots and misses.
func TestIndexProbeWraps(t *testing.T) {
	c := NewComplex()
	seqs := lastSlotIDs(t, c, 3)
	c.insertIfAbsent(seqs[0])
	c.insertIfAbsent(seqs[1])
	if len(c.index) != minIndexSlots {
		t.Fatalf("index has %d slots, want %d", len(c.index), minIndexSlots)
	}
	if got := c.homeSlot(hashIDs(seqs[1])); got != minIndexSlots-1 {
		t.Fatalf("home slot %d, want the last", got)
	}
	if c.index[minIndexSlots-1] == 0 || uint32(c.index[0]) != 2 {
		t.Fatalf("slots last=%#x first=%#x, want entry 0 in the last and entry 1 wrapped to slot 0", c.index[minIndexSlots-1], c.index[0])
	}
	for ei, ids := range seqs[:2] {
		if got := c.find(ids, hashIDs(ids)); got != int32(ei) {
			t.Fatalf("find(%v) = %d, want %d", ids, got, ei)
		}
	}
	if got := c.find(seqs[2], hashIDs(seqs[2])); got != -1 {
		t.Fatalf("absent %v found at %d", seqs[2], got)
	}
}

// TestIndexAbsentWithTakenHome: simplexes absent from a complex are
// reported absent even when their home slot holds another entry.
func TestIndexAbsentWithTakenHome(t *testing.T) {
	c := NewComplex()
	for p := 0; p < 30; p++ {
		c.Add(mustSimplex(hv(p, "a"), hv(p+1, "b")))
	}
	taken := 0
	for p := 0; p < 30; p++ {
		for q := p + 2; q <= 30; q++ {
			s := mustSimplex(hv(p, "a"), hv(q, "b"))
			ids, ok := c.lookupIDs(s)
			if !ok {
				t.Fatalf("vertices of %v not interned", s)
			}
			if c.index[c.homeSlot(hashIDs(ids))] == 0 {
				continue
			}
			taken++
			if c.Has(s) {
				t.Fatalf("absent %v reported present", s)
			}
		}
	}
	if taken == 0 {
		t.Fatal("no absent simplex had a taken home slot")
	}
}

// TestIndexGrowthKeepsEntries: inserting across several doublings keeps
// every entry at the index it was inserted under, and finds it there.
func TestIndexGrowthKeepsEntries(t *testing.T) {
	c := NewComplex()
	var keys []string
	doublings := 0
	for i := 0; i < 300; i++ {
		slots := len(c.index)
		c.Add(mustSimplex(Vertex{P: i % 7, Label: fmt.Sprint(i)}, Vertex{P: 7 + i%5, Label: "x"}, Vertex{P: 12, Label: fmt.Sprint(i % 3)}))
		if slots > 0 && len(c.index) > slots {
			if len(c.index) != 2*slots {
				t.Fatalf("index grew from %d to %d slots, not by doubling", slots, len(c.index))
			}
			doublings++
		}
		for ei := len(keys); ei < c.EntryCount(); ei++ {
			keys = append(keys, c.EntrySimplex(int32(ei)).Key())
		}
	}
	if doublings < 3 {
		t.Fatalf("%d doublings, want at least 3", doublings)
	}
	if 2*c.EntryCount() > len(c.index) {
		t.Fatalf("%d entries in %d slots: load above one half", c.EntryCount(), len(c.index))
	}
	for ei, key := range keys {
		s := c.EntrySimplex(int32(ei))
		if s.Key() != key {
			t.Fatalf("entry %d is %v, inserted as %s", ei, s, key)
		}
		ids, _ := c.lookupIDs(s)
		if got := c.find(ids, hashIDs(ids)); got != int32(ei) {
			t.Fatalf("find(%v) = %d, want %d", s, got, ei)
		}
	}
}

// TestInsertSizesLaggingIndex: an insert into a complex whose index lacks
// entries sizes the index from the entry count, so placing every entry
// again finds room. Doubling an empty index would give the 63 faces
// AddNewFaces appends for six vertices 16 slots, and placing them would
// never return, so a watchdog fails the test rather than hang it.
func TestInsertSizesLaggingIndex(t *testing.T) {
	c := NewComplex()
	ids := make([]int32, 7)
	for i := range ids {
		ids[i], _ = c.Intern(hv(i, "v"))
	}
	c.AddNewFaces(ids[:6], 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.insert(ids[6:], hashIDs(ids[6:]))
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("insert into a complex whose index lags did not return")
	}
	if c.EntryCount() != 64 {
		t.Fatalf("%d entries, want 64", c.EntryCount())
	}
	for ei := int32(0); ei < 64; ei++ {
		e := c.entryIDs(ei)
		if got := c.find(e, hashIDs(e)); got != ei {
			t.Fatalf("find(%v) = %d, want %d", e, got, ei)
		}
	}
}

// TestCloneIsIndependent: inserting into a clone, enough to grow its
// index, leaves the original's size, facets and hash unchanged, and
// inserting into the original afterwards leaves the clone unchanged.
func TestCloneIsIndependent(t *testing.T) {
	tri := mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c"))
	edge := mustSimplex(hv(0, "z"), hv(3, "w"))
	orig := ComplexOf(tri, edge)
	size, facets := orig.Size(), orig.FacetCount()
	want := ComplexOf(tri, edge).CanonicalHash()

	clone := orig.Clone()
	var added []Simplex
	for i := 0; i < 40; i++ {
		s := mustSimplex(hv(0, fmt.Sprint(i)), hv(1, "b"), hv(4, "q"))
		added = append(added, s)
		clone.Add(s)
	}
	if orig.Size() != size || orig.FacetCount() != facets || orig.CanonicalHash() != want {
		t.Fatalf("original changed: size %d (was %d), facets %d (was %d)", orig.Size(), size, orig.FacetCount(), facets)
	}
	for _, s := range added {
		if orig.Has(s) {
			t.Fatalf("original holds the clone's %v", s)
		}
	}
	cloneHash := clone.CanonicalHash()
	orig.Add(mustSimplex(hv(5, "o"), hv(6, "p")))
	if clone.Has(mustSimplex(hv(5, "o"))) || clone.CanonicalHash() != cloneHash {
		t.Fatal("inserting into the original changed the clone")
	}
	if fresh := ComplexOf(append(added, tri, edge)...).CanonicalHash(); cloneHash != fresh {
		t.Fatalf("clone hash %s, want %s", cloneHash, fresh)
	}
}

// TestAddIDsMatchesAdd: interning each vertex once and inserting facets
// as id sequences builds the complex Add builds, entry for entry, and
// Intern reports a vertex new exactly once.
func TestAddIDsMatchesAdd(t *testing.T) {
	facets := []Simplex{
		mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")),
		mustSimplex(hv(0, "a"), hv(1, "d"), hv(2, "c")),
		mustSimplex(hv(0, "e"), hv(2, "c")),
		mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")),
	}
	want, got := NewComplex(), NewComplex()
	seen := make(map[Vertex]bool)
	for _, s := range facets {
		want.Add(s)
		ids := make([]int32, len(s))
		for i, v := range s {
			id, added := got.Intern(v)
			if added == seen[v] {
				t.Fatalf("Intern(%v) reported new = %v on sight %v", v, added, seen[v])
			}
			seen[v] = true
			ids[i] = id
		}
		got.AddIDs(ids)
	}
	if got.EntryCount() != want.EntryCount() || got.VertexCount() != want.VertexCount() {
		t.Fatalf("got %v, want %v", got, want)
	}
	for ei := int32(0); ei < int32(want.EntryCount()); ei++ {
		if !slices.Equal(got.EntrySimplex(ei), want.EntrySimplex(ei)) {
			t.Fatalf("entry %d = %v, Add built %v", ei, got.EntrySimplex(ei), want.EntrySimplex(ei))
		}
	}
}

// TestNewFacesMatchWalkOrder: for a simplex of every size up to nine
// vertices and every need mask, AddNewFaces appends exactly the faces
// that AddIDs' probing walk adds to a complex holding every face missing
// a bit of need, in the same order, and sphereIndex inverts that order:
// the face removing R from the zero set Φ sits at the rank it computes.
func TestNewFacesMatchWalkOrder(t *testing.T) {
	for k := 1; k <= 9; k++ {
		full := uint32(1)<<k - 1
		for need := uint32(0); need <= full; need++ {
			walked, appended := NewComplex(), NewComplex()
			ids := make([]int32, k)
			for i := range ids {
				ids[i], _ = walked.Intern(hv(i, "v"))
				appended.Intern(hv(i, "v"))
			}
			for mask := uint32(1); mask <= full; mask++ {
				if mask&need == need {
					continue
				}
				var face []int32
				for i, id := range ids {
					if mask>>i&1 == 1 {
						face = append(face, id)
					}
				}
				walked.AddClosedIDs(face)
				appended.AddClosedIDs(face)
			}
			before := walked.EntryCount()
			walked.AddIDs(ids)
			appended.AddNewFaces(ids, need)
			if walked.EntryCount() != appended.EntryCount() {
				t.Fatalf("k=%d need=%b: AddNewFaces appended %d faces, the walk %d", k, need, appended.EntryCount()-before, walked.EntryCount()-before)
			}
			zero, first := full&^need, 0
			if need != 0 {
				first = 1 // sphereIndex subtracts the empty choice
			}
			for ei := before; ei < walked.EntryCount(); ei++ {
				g, w := appended.entryIDs(int32(ei)), walked.entryIDs(int32(ei))
				if !slices.Equal(g, w) {
					t.Fatalf("k=%d need=%b: face %d is %v, the walk's %v", k, need, ei-before, g, w)
				}
				var present uint32
				for _, id := range w {
					present |= 1 << id // ids[i] == i
				}
				removed, bit := uint(0), uint(1)
				for i := range k {
					if zero>>i&1 == 1 {
						if present>>i&1 == 0 {
							removed |= bit
						}
						bit <<= 1
					}
				}
				if got := sphereIndex(first, uint(bits.OnesCount32(zero)), removed); int(got) != ei-before {
					t.Fatalf("k=%d need=%b: face %v ranks %d, appended %d", k, need, w, got, ei-before)
				}
			}
		}
	}
}

// TestTruncateRestoresMark: truncating to earlier counts gives back the
// complex as it was then, and the complex keeps working afterwards.
func TestTruncateRestoresMark(t *testing.T) {
	c := ComplexOf(mustSimplex(hv(0, "a"), hv(1, "b")))
	before := c.Clone()
	hash := c.CanonicalHash()
	nv, ne := c.VertexCount(), c.EntryCount()
	for p := 0; p < 40; p++ { // enough entries to grow the index
		c.Add(mustSimplex(hv(p, "x"), hv(p+1, "y"), hv(p+2, "z")))
	}
	id, _ := c.Intern(hv(0, "lone"))
	if !c.AddClosedIDs([]int32{id}) || c.AddClosedIDs([]int32{id}) {
		t.Fatal("AddClosedIDs must report the first insertion only")
	}
	c.Truncate(nv, ne)
	if !c.Equal(before) || c.CanonicalHash() != hash || c.Dim() != 1 || c.VertexCount() != nv {
		t.Fatalf("truncated complex %v differs from %v", c, before)
	}
	if c.HasVertex(hv(0, "lone")) || c.Has(mustSimplex(hv(3, "x"))) {
		t.Fatal("truncated vertices or entries are still found")
	}
	c.Add(mustSimplex(hv(0, "a"), hv(1, "b"), hv(2, "c")))
	if !c.Has(mustSimplex(hv(1, "b"), hv(2, "c"))) || c.Size() != 7 {
		t.Fatalf("insertion after Truncate: %v", c)
	}
}
