package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// keyTokens holds every interned vertex's key token "p:label", each
// rendered once, end to end in one buffer: vertex id's token is
// buf[off[id]:off[id+1]].
type keyTokens struct {
	buf []byte
	off []int
}

// keyTokens renders the key token of every interned vertex.
func (c *Complex) keyTokens() keyTokens {
	var digits [20]byte
	size := 0
	for _, v := range c.byID {
		size += len(strconv.AppendInt(digits[:0], int64(v.P), 10)) + 1 + len(v.Label)
	}
	// Sized up front: labels can be long views, and growing the buffer
	// by appending would allocate several times its final size.
	t := keyTokens{buf: make([]byte, 0, size), off: make([]int, len(c.byID)+1)}
	for id, v := range c.byID {
		t.buf = strconv.AppendInt(t.buf, int64(v.P), 10)
		t.buf = append(t.buf, ':')
		t.buf = append(t.buf, v.Label...)
		t.off[id+1] = len(t.buf)
	}
	return t
}

// of returns vertex id's token.
func (t keyTokens) of(id int32) []byte { return t.buf[t.off[id]:t.off[id+1]] }

// appendKey appends the canonical string key of the entry id sequence to
// dst, byte for byte what Simplex.Key produces on the materialized simplex.
func (t keyTokens) appendKey(dst []byte, ids []int32) []byte {
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, t.of(id)...)
	}
	return dst
}

// keyLen returns the length of the key appendKey renders for ids: its
// tokens and the separators between them.
func (t keyTokens) keyLen(ids []int32) int {
	n := len(ids) - 1
	for _, id := range ids {
		n += t.off[id+1] - t.off[id]
	}
	return n
}

// keyRanks returns each interned vertex's rank in the string order of its
// key token "p:label", and reports whether the tokens are prefix-free (no
// token is a proper prefix of another). When they are, comparing two
// entries' id sequences rank by rank, a sequence that is a prefix of the
// other first, orders them exactly as their keys compare: the first
// differing tokens then differ at a byte inside both, and that byte
// decides both comparisons. Tokens are distinct because the first ':'
// ends the process id.
func (c *Complex) keyRanks(toks keyTokens) ([]int32, bool) {
	order := make([]int32, len(c.byID))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(toks.of(a), toks.of(b)) })
	ranks := make([]int32, len(order))
	for r, id := range order {
		// A token that prefixes any other also prefixes its successor.
		if r > 0 && bytes.HasPrefix(toks.of(id), toks.of(order[r-1])) {
			return nil, false
		}
		ranks[id] = int32(r)
	}
	return ranks, true
}

// sortByKey sorts entry indices into the order of their keys, by dimension
// first when byDim: the order sorting the materialized simplexes by
// Simplex.Key produces. Keys are compared through vertex ranks when the
// vertex tokens allow it (see keyRanks), packed into one integer per entry
// and radix-sorted when they fit (see sortPacked), and are otherwise
// rendered once each, never once per comparison. It returns the vertex
// tokens it rendered.
func (c *Complex) sortByKey(eis []int32, byDim bool) keyTokens {
	toks := c.keyTokens()
	if ranks, ok := c.keyRanks(toks); ok {
		if c.sortPacked(eis, ranks, byDim) {
			return toks
		}
		slices.SortFunc(eis, func(a, b int32) int {
			x, y := c.entryIDs(a), c.entryIDs(b)
			if byDim && len(x) != len(y) {
				return len(x) - len(y)
			}
			for i := 0; i < len(x) && i < len(y); i++ {
				if x[i] != y[i] {
					return int(ranks[x[i]] - ranks[y[i]])
				}
			}
			return len(x) - len(y)
		})
		return toks
	}
	type keyed struct {
		key string
		ei  int32
	}
	ks := make([]keyed, len(eis))
	for i, ei := range eis {
		ks[i] = keyed{string(toks.appendKey(nil, c.entryIDs(ei))), ei}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if byDim {
			if d := len(c.entryIDs(a.ei)) - len(c.entryIDs(b.ei)); d != 0 {
				return d
			}
		}
		return strings.Compare(a.key, b.key)
	})
	for i := range ks {
		eis[i] = ks[i].ei
	}
	return toks
}

// sortPacked sorts eis by one integer key per entry: its dimension (when
// byDim) above each vertex's rank+1 in a fixed-width field, zero fields
// padding the entry to the complex's dimension. Integer order is then the
// rank order, a sequence that is a prefix of another first, and the sort
// reads no entry twice. When the key and the entry index fit in 64 bits
// together they share one uint64 per entry; otherwise the indices travel
// beside the keys. It reports false, leaving eis as they were, when the
// key alone does not fit.
func (c *Complex) sortPacked(eis []int32, ranks []int32, byDim bool) bool {
	if len(eis) == 0 {
		return true
	}
	width := bits.Len(uint(len(ranks))) // rank+1 is at most len(ranks)
	keyBits := (c.dim + 1) * width
	if byDim {
		keyBits += bits.Len(uint(c.dim))
	}
	if keyBits > 64 {
		return false
	}
	idxBits := bits.Len(uint(len(c.ends) - 1)) // every entry index fits
	shift := 0
	if keyBits+idxBits <= 64 {
		shift = idxBits
	}
	ks := make([]uint64, len(eis))
	for i, ei := range eis {
		ids := c.entryIDs(ei)
		var key uint64
		if byDim {
			key = uint64(len(ids) - 1)
		}
		for _, id := range ids {
			key = key<<width | uint64(ranks[id]+1)
		}
		ks[i] = key << ((c.dim + 1 - len(ids)) * width) << shift
		if shift > 0 {
			ks[i] |= uint64(ei)
		}
	}
	if shift == 0 {
		radixSort(ks, eis, 0, keyBits)
		return true
	}
	radixSort(ks, nil, shift, shift+keyBits)
	for i, k := range ks {
		eis[i] = int32(k & (1<<shift - 1))
	}
	return true
}

// radixDigit is the width of one radix sort pass, in bits.
const radixDigit = 11

// radixSort sorts keys by their bits lo..hi-1, which must hold every set
// bit at or above lo, least significant digit first. Each pass is stable,
// and vals, when non-nil, moves with keys.
func radixSort(keys []uint64, vals []int32, lo, hi int) {
	const mask = 1<<radixDigit - 1
	src, dst := keys, make([]uint64, len(keys))
	var vsrc, vdst []int32
	if vals != nil {
		vsrc, vdst = vals, make([]int32, len(vals))
	}
	var count [1 << radixDigit]int
	for shift := lo; shift < hi; shift += radixDigit {
		clear(count[:])
		for _, k := range src {
			count[k>>shift&mask]++
		}
		if count[src[0]>>shift&mask] == len(src) {
			continue // one digit everywhere: the pass would move nothing
		}
		sum := 0
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		for i, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			if vals != nil {
				vdst[count[d]] = vsrc[i]
			}
			count[d]++
		}
		src, dst = dst, src
		vsrc, vdst = vdst, vsrc
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, vsrc)
	}
}

// CanonicalHash returns a hex SHA-256 digest canonically identifying the
// complex. It is the cache key used by the homology package's memoized
// engine: equal complexes always hash equal, and distinct complexes
// collide only with cryptographic improbability.
//
// The digest is SHA-256 over the sorted simplex keys, each written as
// "len:key;". The keys are rendered from the interned entries on demand;
// the tests check the digest against that definition computed from Key
// strings alone.
//
// The digest is memoized on the complex until the next insertion, so the
// statistics pass, the Betti cache key and rank checkpoints of one build
// share a single computation. Concurrent readers are safe: at worst two
// of them compute the same digest.
func (c *Complex) CanonicalHash() string {
	if h := c.hash.Load(); h != nil {
		return *h
	}
	eis := make([]int32, len(c.ends))
	for i := range eis {
		eis[i] = int32(i)
	}
	toks := c.sortByKey(eis, false)
	h := sha256.New()
	buf := make([]byte, 0, 64<<10)
	for _, ei := range eis {
		ids := c.entryIDs(ei)
		buf = strconv.AppendInt(buf, int64(toks.keyLen(ids)), 10)
		buf = append(buf, ':')
		buf = toks.appendKey(buf, ids)
		buf = append(buf, ';')
		if len(buf) >= 48<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	sum := hex.EncodeToString(h.Sum(nil))
	c.hash.Store(&sum)
	return sum
}
