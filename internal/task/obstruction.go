package task

import (
	"fmt"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/topology"
)

// Theorem9Obstructed evaluates the hypothesis of the paper's Theorem 9:
// with values V = {v_0, ..., v_k} (k+1 values), if for every nonempty
// subset U of V the protocol complex P(psi(P^n; U)) is (k-1)-connected,
// then the protocol cannot solve k-set agreement. build must return the
// protocol complex restricted to the input pseudosphere psi(P^n; U).
//
// The function returns true when the hypothesis holds (so k-set agreement
// is impossible on the protocol), and false when some restriction fails to
// be (k-1)-connected (the theorem is then silent).
func Theorem9Obstructed(build func(inputValues []string) *topology.Complex, values []string, k int) (bool, error) {
	if len(values) != k+1 {
		return false, fmt.Errorf("task: Theorem 9 needs exactly k+1 = %d values, got %d", k+1, len(values))
	}
	for _, u := range nonemptySubsets(values) {
		c := build(u)
		if !homology.IsKConnected(c, k-1) {
			return false, nil
		}
	}
	return true, nil
}

// Corollary10Obstructed evaluates the hypothesis of Corollary 10, which
// instantiates Theorem 5 with c = n-k: if P(S^m) is (m-(n-k)-1)-connected
// for every m with 0 <= m <= n, then the protocol cannot solve k-set
// agreement. Below m = n-k the demanded connectivity is at most -2, which
// every complex has; from m = n-k up, P(S^m) must at least be nonempty.
// conn must return the protocol complex for an input simplex with m+1
// participating processes.
func Corollary10Obstructed(conn func(m int) *topology.Complex, n, k int) bool {
	for m := 0; m <= n; m++ {
		if !homology.IsKConnected(conn(m), m-(n-k)-1) {
			return false
		}
	}
	return true
}

// nonemptySubsets enumerates the nonempty subsets of values in a stable
// order.
func nonemptySubsets(values []string) [][]string {
	var out [][]string
	n := len(values)
	for mask := 1; mask < 1<<n; mask++ {
		var sub []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, values[i])
			}
		}
		out = append(out, sub)
	}
	return out
}
