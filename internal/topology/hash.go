package topology

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// appendKey appends the canonical string key of the entry id sequence to
// dst, byte for byte what Simplex.Key produces on the materialized simplex.
func (c *Complex) appendKey(dst []byte, ids []int32) []byte {
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, '|')
		}
		v := c.byID[id]
		dst = strconv.AppendInt(dst, int64(v.P), 10)
		dst = append(dst, ':')
		dst = append(dst, v.Label...)
	}
	return dst
}

// keyRanks returns each interned vertex's rank in the string order of its
// key token "p:label", and reports whether the tokens are prefix-free (no
// token is a proper prefix of another). When they are, comparing two
// entries' id sequences rank by rank, a sequence that is a prefix of the
// other first, orders them exactly as their keys compare: the first
// differing tokens then differ at a byte inside both, and that byte
// decides both comparisons. Tokens are distinct because the first ':'
// ends the process id.
func (c *Complex) keyRanks() ([]int32, bool) {
	toks := make([]string, len(c.byID))
	order := make([]int32, len(c.byID))
	for id, v := range c.byID {
		toks[id] = strconv.Itoa(v.P) + ":" + v.Label
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(toks[a], toks[b]) })
	ranks := make([]int32, len(order))
	for r, id := range order {
		// A token that prefixes any other also prefixes its successor.
		if r > 0 && strings.HasPrefix(toks[id], toks[order[r-1]]) {
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
// when they fit (see sortPacked), and are otherwise rendered once each,
// never once per comparison.
func (c *Complex) sortByKey(eis []int32, byDim bool) {
	if ranks, ok := c.keyRanks(); ok {
		if c.sortPacked(eis, ranks, byDim) {
			return
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
		return
	}
	type keyed struct {
		key string
		ei  int32
	}
	ks := make([]keyed, len(eis))
	for i, ei := range eis {
		ks[i] = keyed{string(c.appendKey(nil, c.entryIDs(ei))), ei}
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
}

// sortPacked sorts eis by one uint64 per entry: its dimension (when byDim)
// above each vertex's rank+1 in a fixed-width field, zero fields padding
// the entry to the complex's dimension. Integer order is then the rank
// order, a sequence that is a prefix of another first, and the sort reads
// no entry twice. It reports false, leaving eis as they were, when the
// fields do not fit in 64 bits.
func (c *Complex) sortPacked(eis []int32, ranks []int32, byDim bool) bool {
	if len(eis) == 0 {
		return true
	}
	width := bits.Len(uint(len(ranks))) // rank+1 is at most len(ranks)
	top := 0
	if byDim {
		top = bits.Len(uint(c.dim))
	}
	if top+(c.dim+1)*width > 64 {
		return false
	}
	type packed struct {
		key uint64
		ei  int32
	}
	ks := make([]packed, len(eis))
	for i, ei := range eis {
		ids := c.entryIDs(ei)
		var key uint64
		if byDim {
			key = uint64(len(ids) - 1)
		}
		for _, id := range ids {
			key = key<<width | uint64(ranks[id]+1)
		}
		ks[i] = packed{key << ((c.dim + 1 - len(ids)) * width), ei}
	}
	slices.SortFunc(ks, func(a, b packed) int { return cmp.Compare(a.key, b.key) })
	for i := range ks {
		eis[i] = ks[i].ei
	}
	return true
}

// FacetEncoding returns a canonical textual encoding of the complex: the
// keys of its facets in sorted (dimension, key) order, each prefixed by
// its byte length so that arbitrary label strings cannot collide. Because
// a complex is determined by its facets, two complexes are Equal if and
// only if their facet encodings are equal; the encoding is therefore a
// sound memoization key for any function of the complex.
func (c *Complex) FacetEncoding() string {
	var b strings.Builder
	for _, s := range c.Facets() {
		key := s.Key()
		b.WriteString(strconv.Itoa(len(key)))
		b.WriteByte(':')
		b.WriteString(key)
		b.WriteByte(';')
	}
	return b.String()
}

// CanonicalHash returns a hex SHA-256 digest canonically identifying the
// complex. It is the cache key used by the homology package's memoized
// engine: equal complexes always hash equal, and distinct complexes
// collide only with cryptographic improbability.
//
// The digest is taken over the sorted, length-prefixed simplex-key set.
// The keys are rendered from the interned entries on demand, but the
// encoding (and therefore the digest) is unchanged from the string-keyed
// representation this core replaced — ReferenceComplex.CanonicalHash is
// differentially tested to agree.
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
	c.sortByKey(eis, false)
	h := sha256.New()
	buf := make([]byte, 0, 64<<10)
	var key []byte
	for _, ei := range eis {
		key = c.appendKey(key[:0], c.entryIDs(ei))
		buf = strconv.AppendInt(buf, int64(len(key)), 10)
		buf = append(buf, ':')
		buf = append(buf, key...)
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
