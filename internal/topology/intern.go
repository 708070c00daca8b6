package topology

import (
	"math/bits"
	"slices"
)

// The interned complex core.
//
// A Complex stores each distinct vertex once in a per-complex intern table
// (Vertex -> dense int32 id) and each simplex as its vertex-id sequence in
// ascending process-id order, the same canonical order Simplex itself
// maintains. The sequences lie end to end in one []int32 id arena, entry
// ei at ids[ends[ei-1]:ends[ei]], so a stored simplex costs its ids plus
// one offset and no pointer.
//
// Simplexes are found through an open-addressing index over a cheap
// 64-bit hash of the id sequence: a power-of-two []uint64 whose nonzero
// slots hold the hash's high 32 bits over entry+1, probed linearly from
// the slot the hash's low bits name. The index is kept at most half full
// (indexSlots), re-hashing the stored ids when it grows. Membership tests
// and face closure therefore never build string keys, and a probe reads
// only flat slices: the index, and the arena when a slot's hash half
// matches.
//
// The index may lag the arena. AddNewFaces appends a pseudosphere's
// faces without placing them, and Truncate empties it, so every path
// that looks a simplex up first places the entries it lacks (placeAll).
// A complex from a fresh one-round pseudosphere build (roundop's
// pseudosphere path and roundop.Product) never looks one up: it computes
// its face table instead (see sphereFaces), so its index is built only
// if something else asks.

// maskWalkLimit bounds the bitmask closure walk: simplexes with more
// vertices fall back to a recursive face closure. Chromatic simplexes have
// one vertex per process, so real workloads sit far below this.
const maskWalkLimit = 25

// minIndexSlots is the index size a complex's first insertion allocates.
const minIndexSlots = 16

// intern returns the dense id of v, assigning the next id on first sight.
func (c *Complex) intern(v Vertex) int32 {
	if id, ok := c.verts[v]; ok {
		return id
	}
	id := int32(len(c.byID))
	c.verts[v] = id
	c.byID = append(c.byID, v)
	return id
}

// hashIDs mixes an id sequence into a 64-bit key (splitmix-style rounds;
// collisions are resolved by exact comparison in find).
func hashIDs(ids []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// entryIDs returns the vertex ids of entry ei, a view into the arena that
// callers must not modify.
func (c *Complex) entryIDs(ei int32) []int32 {
	lo := int32(0)
	if ei > 0 {
		lo = c.ends[ei-1]
	}
	hi := c.ends[ei]
	return c.ids[lo:hi:hi]
}

// entryStart returns the arena offset of entry ei's first id; at ei ==
// EntryCount it is the arena's length.
func (c *Complex) entryStart(ei int) int {
	if ei == 0 {
		return 0
	}
	return int(c.ends[ei-1])
}

// find returns the entry index storing exactly ids (hashed to h), or -1.
// The index must hold every entry (placeAll). find only reads, so
// concurrent finds on a complex nobody mutates are safe.
func (c *Complex) find(ids []int32, h uint64) int32 {
	if len(c.index) == 0 {
		return -1
	}
	mask := uint64(len(c.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := c.index[i]
		if slot == 0 {
			return -1
		}
		if slot>>32 == h>>32 {
			if ei := int32(uint32(slot)) - 1; slices.Equal(c.entryIDs(ei), ids) {
				return ei
			}
		}
	}
}

// place records entry ei, hashed to h, in the first empty slot of its
// probe sequence.
func (c *Complex) place(h uint64, ei int32) {
	mask := uint64(len(c.index) - 1)
	i := h & mask
	for c.index[i] != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = h>>32<<32 | uint64(ei+1)
}

// indexSlots is the index size for a complex of entries entries: the
// smallest power of two, at least minIndexSlots, that is at least twice
// the entry count. Growing one entry at a time from a half-full index,
// it doubles the index.
func indexSlots(entries int) int {
	slots := minIndexSlots
	for slots < 2*entries {
		slots *= 2
	}
	return slots
}

// resizeIndex replaces the index with one of slots slots, a power of two,
// and places every entry in entry order. A slot keeps only the high half
// of its hash, so each entry's home slot is recomputed from its stored
// ids.
func (c *Complex) resizeIndex(slots int) {
	c.index = make([]uint64, slots)
	for ei := range c.ends {
		c.place(hashIDs(c.entryIDs(int32(ei))), int32(ei))
	}
	c.unplaced.Store(-1)
}

// placeAll places every entry the index lacks, in one pass sized to the
// entry count, before a lookup. Like the face table's fill it locks only
// when there is work, behind the unplaced watermark, so concurrent
// readers of a complex nobody mutates stay safe.
func (c *Complex) placeAll() {
	if c.unplaced.Load() < 0 {
		return
	}
	c.indexMu.Lock()
	defer c.indexMu.Unlock()
	from := int(c.unplaced.Load())
	if from < 0 {
		return // another reader placed them
	}
	if slots := indexSlots(len(c.ends)); slots > len(c.index) {
		c.resizeIndex(slots)
		return
	}
	for ei := from; ei < len(c.ends); ei++ {
		c.place(hashIDs(c.entryIDs(int32(ei))), int32(ei))
	}
	c.unplaced.Store(-1)
}

// appendEntry stores ids as a new entry without placing it in the index,
// updating the f-vector and dimension and dropping the memoized canonical
// hash.
func (c *Complex) appendEntry(ids []int32) {
	if c.hash.Load() != nil {
		c.hash.Store(nil)
	}
	c.ids = append(c.ids, ids...)
	c.ends = append(c.ends, int32(len(c.ids)))
	d := len(ids) - 1
	for len(c.counts) <= d {
		c.counts = append(c.counts, 0)
	}
	c.counts[d]++
	if d > c.dim {
		c.dim = d
	}
}

// insert stores ids (hashed to h) as a new entry and places it. The
// caller must have checked absence with find, so the index already holds
// every other entry.
func (c *Complex) insert(ids []int32, h uint64) {
	if 2*(len(c.ends)+1) > len(c.index) {
		c.resizeIndex(indexSlots(len(c.ends) + 1))
	}
	c.place(h, int32(len(c.ends)))
	c.appendEntry(ids)
}

// insertIfAbsent inserts ids unless present; it performs no face closure,
// so callers must guarantee every face of ids is (or will be) inserted,
// and it does not place the index (placeAll) first.
func (c *Complex) insertIfAbsent(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) < 0 {
		c.insert(ids, h)
	}
}

// internSimplex interns the vertices of s and returns their ids in s's own
// (ascending process-id) order, reusing the complex's scratch buffer. The
// result is only valid until the next internSimplex call.
func (c *Complex) internSimplex(s Simplex) []int32 {
	if cap(c.idBuf) < len(s) {
		c.idBuf = make([]int32, len(s))
	}
	ids := c.idBuf[:len(s)]
	for i, v := range s {
		ids[i] = c.intern(v)
	}
	return ids
}

// lookupIDs maps s to its id sequence without interning. It reports false
// if some vertex has never been seen (so s cannot be present). It
// allocates its own buffer: lookups are read-only and must stay safe under
// concurrent readers (the homology engine hashes and indexes shared
// complexes from several goroutines).
func (c *Complex) lookupIDs(s Simplex) ([]int32, bool) {
	ids := make([]int32, len(s))
	for i, v := range s {
		id, ok := c.verts[v]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// addDirect inserts s without a closure walk; valid only when the caller
// adds a face-closed set of simplexes entry by entry.
func (c *Complex) addDirect(s Simplex) {
	c.insertIfAbsent(c.internSimplex(s))
}

// addClosure inserts ids and every nonempty face, walking the subset
// lattice iteratively by bitmask: bit i of a face's mask stands for
// ids[i]. A face found present is skipped together with its whole
// subtree — the complex is closed under containment, so every subset of
// a present face is already present. This is the hot inner loop of every
// model constructor that probes: unions of branches, r > 1 rounds, a
// resumed build, a shard run alone, Add and AddIDs. A fresh one-round
// pseudosphere build appends through AddNewFaces instead.
func (c *Complex) addClosure(ids []int32) {
	n := len(ids)
	if n == 0 {
		return
	}
	c.placeAll()
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return // fast path: facet re-added by an enumerator
	}
	if n > maskWalkLimit {
		c.addClosureRecursive(ids)
		return
	}
	full := uint32(1)<<uint(n) - 1
	words := (int(full) >> 6) + 1
	if cap(c.visited) < words {
		c.visited = make([]uint64, words)
	} else {
		c.visited = c.visited[:words]
		for i := range c.visited {
			c.visited[i] = 0
		}
	}
	if cap(c.subBuf) < n {
		c.subBuf = make([]int32, n)
	}
	sub := c.subBuf
	stack := c.maskStack[:0]
	stack = append(stack, full)
	for len(stack) > 0 {
		mask := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.visited[mask>>6]>>(mask&63)&1 == 1 {
			continue
		}
		c.visited[mask>>6] |= 1 << (mask & 63)
		k := 0
		for m := mask; m != 0; m &= m - 1 {
			sub[k] = ids[bits.TrailingZeros32(m)]
			k++
		}
		sh := hashIDs(sub[:k])
		if c.find(sub[:k], sh) >= 0 {
			continue // whole subtree already present
		}
		c.insert(sub[:k], sh)
		for m := mask; m != 0; m &= m - 1 {
			child := mask &^ (1 << uint(bits.TrailingZeros32(m)))
			if child != 0 {
				stack = append(stack, child)
			}
		}
	}
	c.maskStack = stack[:0]
}

// addClosureRecursive is the fallback closure for simplexes too large for
// the bitmask walk; it mirrors the former recursive Add.
func (c *Complex) addClosureRecursive(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return
	}
	c.insert(ids, h)
	if len(ids) == 1 {
		return
	}
	face := make([]int32, len(ids)-1)
	for i := range ids {
		copy(face, ids[:i])
		copy(face[i:], ids[i+1:])
		c.addClosureRecursive(face)
	}
}

// simplexAt materializes the entry at index ei as a Simplex.
func (c *Complex) simplexAt(ei int32) Simplex {
	ids := c.entryIDs(ei)
	s := make(Simplex, len(ids))
	for i, id := range ids {
		s[i] = c.byID[id]
	}
	return s
}

// translationTo returns a map from d's vertex ids to c's, interning every
// vertex of d into c (used by UnionWith, where all of d is inserted).
func (c *Complex) translationTo(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		trans[i] = c.intern(v)
	}
	return trans
}

// lookupTranslation maps d's vertex ids to c's without interning; absent
// vertices map to -1 (used by membership-only paths).
func (c *Complex) lookupTranslation(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		if id, ok := c.verts[v]; ok {
			trans[i] = id
		} else {
			trans[i] = -1
		}
	}
	return trans
}

// translate maps entry ids through trans into buf; it reports false if a
// vertex is missing (trans value -1). Ascending process-id order is
// preserved because translation never changes a vertex's process id.
func translate(ids []int32, trans []int32, buf []int32) ([]int32, bool) {
	for i, id := range ids {
		t := trans[id]
		if t < 0 {
			return nil, false
		}
		buf[i] = t
	}
	return buf[:len(ids)], true
}
