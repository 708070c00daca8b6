// Package cluster is the horizontal-scaling layer of the serving tier:
// a consistent-hash ring that assigns every canonical cache key — whole
// response keys and CanonicalHash Betti keys alike — to one owner
// replica, replica health tracking for the router's failover, and a
// read-through store backend that fills local misses from the key's
// owner over HTTP. Together they turn N serve processes into one fleet:
// the router sends each key to its owner (so concurrent cold requests
// collapse in the owner's singleflight), and replicas that compute or
// receive a result off-owner push it to the owner, which acts as the
// shared tier for that key.
//
// The package mirrors the paper's framing one level up: just as the
// round operator makes the five message-passing models interchangeable
// backends of one enumeration engine, the ring makes N replicas
// interchangeable backends of one serving protocol.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-replica vnode count when a Ring is
// built with vnodes <= 0: enough that a 2–16 node fleet's key shares
// stay within a few percent of uniform, cheap enough that ring rebuilds
// are microseconds.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over replica names with virtual nodes.
// Every key hashes to a point on a 64-bit circle; its owner is the
// replica of the first vnode at or after that point. Adding a replica
// remaps ~1/N of the keys to it; removing one remaps only the keys it
// owned — the property that keeps a fleet's caches warm across
// membership changes. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given vnode count per node
// (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256.
// Cryptographic dispersion matters more than speed here — keys are
// hashed once per request, and a weak hash would clump vnodes.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts nodes (idempotently) and re-sorts the ring.
func (r *Ring) Add(nodes ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, node := range nodes {
		if node == "" || r.nodes[node] {
			continue
		}
		r.nodes[node] = true
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(node + "#" + strconv.Itoa(v)), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the replica owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct replicas in preference order for key:
// the owner first, then the successive clockwise distinct nodes. This is
// the router's failover order — when the owner is down, the next owner
// is the replica that would inherit the key if the owner left the ring,
// so retried work lands where the key would live anyway.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
