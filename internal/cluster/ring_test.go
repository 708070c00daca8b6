package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("resp|connectivity|n=%d|values=v%d", i%13, i)
	}
	return keys
}

// TestRingOwnerStable: the owner of a key is a pure function of the
// membership set — two rings built in different orders agree on every
// key, and re-asking the same ring never changes the answer.
func TestRingOwnerStable(t *testing.T) {
	cases := []struct {
		name   string
		vnodes int
		nodes  []string
	}{
		{"three_default_vnodes", 0, []string{"http://a:1", "http://b:1", "http://c:1"}},
		{"two_small_vnodes", 8, []string{"http://a:1", "http://b:1"}},
		{"five_nodes", 32, []string{"n1", "n2", "n3", "n4", "n5"}},
		{"single_node", 0, []string{"only"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fwd := NewRing(tc.vnodes)
			fwd.Add(tc.nodes...)
			rev := NewRing(tc.vnodes)
			for i := len(tc.nodes) - 1; i >= 0; i-- {
				rev.Add(tc.nodes[i])
			}
			for _, key := range testKeys(2000) {
				a, b := fwd.Owner(key), rev.Owner(key)
				if a != b {
					t.Fatalf("key %q: owner depends on insertion order (%q vs %q)", key, a, b)
				}
				if again := fwd.Owner(key); again != a {
					t.Fatalf("key %q: owner not stable across calls (%q then %q)", key, a, again)
				}
				if len(tc.nodes) == 1 && a != tc.nodes[0] {
					t.Fatalf("single-node ring routed %q to %q", key, a)
				}
			}
		})
	}
}

// TestRingAddRemapsFraction: growing a 3-node ring to 4 moves roughly
// 1/4 of the keys — consistent hashing's defining economy. The band is
// generous ([0.15, 0.35]) because vnode placement is hash luck, but a
// modulo-style scheme (which moves ~3/4) lands far outside it.
func TestRingAddRemapsFraction(t *testing.T) {
	keys := testKeys(20000)
	before := NewRing(DefaultVirtualNodes)
	before.Add("http://a:1", "http://b:1", "http://c:1")
	after := NewRing(DefaultVirtualNodes)
	after.Add("http://a:1", "http://b:1", "http://c:1", "http://d:1")

	moved := 0
	for _, key := range keys {
		was, is := before.Owner(key), after.Owner(key)
		if was != is {
			if is != "http://d:1" {
				t.Fatalf("key %q moved %q -> %q; adding a node may only move keys TO it", key, was, is)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("adding 4th node moved %.3f of keys, want ~0.25 in [0.15, 0.35]", frac)
	}
}

// TestRingOwners: the failover order starts at the owner, never repeats
// a node, and is capped by membership.
func TestRingOwners(t *testing.T) {
	r := NewRing(16)
	r.Add("n1", "n2", "n3")
	for _, key := range testKeys(500) {
		owners := r.Owners(key, 5)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 5) on a 3-node ring returned %d nodes", key, len(owners))
		}
		if owners[0] != r.Owner(key) {
			t.Fatalf("Owners[0] = %q, Owner = %q", owners[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range owners {
			if seen[n] {
				t.Fatalf("Owners(%q) repeats %q", key, n)
			}
			seen[n] = true
		}
	}
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(k, 0) = %v, want nil", got)
	}
	if got := NewRing(0).Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}

// TestRingMembership: Add is idempotent and Nodes is sorted.
func TestRingMembership(t *testing.T) {
	r := NewRing(4)
	r.Add("b", "a", "b", "")
	r.Add("a")
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	nodes := r.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("Nodes = %v, want [a b]", nodes)
	}
}
