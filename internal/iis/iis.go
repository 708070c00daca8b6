// Package iis implements the one-round iterated immediate snapshot (IIS)
// complex of Borowsky and Gafni [BG97], the shared-memory construction the
// paper's Section 6 cites as the closest relative of its asynchronous
// message-passing rounds ("this set of executions looks something like a
// message-passing analog of the executions arising in the iterated
// immediate snapshot model").
//
// In one immediate-snapshot round the processes are arranged into an
// ordered partition (blocks of simultaneous writers); a process's view is
// the set of processes in its own block and all earlier blocks. The
// one-round complex over an input simplex is the standard chromatic
// subdivision of that simplex: its facets are indexed by ordered set
// partitions (so their number is the Fubini number of the process count),
// and it is topologically a subdivision — in particular contractible over
// a single input simplex — which the tests verify with the homology
// engine. Iterating r times yields the IIS_r complex.
//
// Implementing IIS alongside the message-passing models makes the paper's
// comparison concrete: both one-round complexes are highly connected, but
// the message-passing round is a single pseudosphere while the IIS round
// is a subdivision; the impossibility consequences (no wait-free k-set
// agreement for k <= n) agree.
package iis

import (
	"sort"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// Operator returns the IIS model as a round operator for the shared
// engine; roundop.Build over it yields IIS_r, each round's construction
// applied to each facet of the previous round. One immediate-snapshot
// round has a branch per ordered partition of the participants, in which
// each process sees the blocks up to and including its own; unlike the
// message-passing models, the partition determines every process's view
// outright, so each branch's option table has exactly one option per
// position and the branch contributes a single facet. The model is
// failure-bound-free: continuations reuse the same operator.
func Operator() roundop.Operator {
	return iisOperator{}
}

type iisOperator struct{}

func (o iisOperator) Branches(cur []*views.View) ([]roundop.Branch, error) {
	byID := make(map[int]*views.View, len(cur))
	ids := make([]int, len(cur))
	for i, v := range cur {
		byID[v.P] = v
		ids[i] = v.P
	}
	sort.Ints(ids)
	pos := make(map[int]int, len(ids)) // process id -> option-table position
	for i, q := range ids {
		pos[q] = i
	}
	var out []roundop.Branch
	for _, partition := range OrderedPartitions(ids) {
		opts := make([][]pc.Option, len(ids))
		var seen []int
		for _, block := range partition {
			seen = append(seen, block...)
			for _, p := range block {
				heard := make(map[int]*views.View, len(seen))
				for _, q := range seen {
					heard[q] = byID[q]
				}
				opts[pos[p]] = []pc.Option{pc.NewOption(views.Next(p, heard))}
			}
		}
		out = append(out, roundop.Branch{Opts: opts, Next: o})
	}
	return out, nil
}

// OrderedPartitions enumerates the ordered set partitions of ids (each
// partition is a sequence of nonempty disjoint blocks covering ids). The
// count is the Fubini (ordered Bell) number of len(ids).
func OrderedPartitions(ids []int) [][][]int {
	if len(ids) == 0 {
		return [][][]int{{}}
	}
	var out [][][]int
	// Choose the first block (any nonempty subset), then recurse.
	n := len(ids)
	for mask := 1; mask < 1<<n; mask++ {
		var block, rest []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				block = append(block, ids[i])
			} else {
				rest = append(rest, ids[i])
			}
		}
		for _, tail := range OrderedPartitions(rest) {
			partition := make([][]int, 0, len(tail)+1)
			partition = append(partition, block)
			partition = append(partition, tail...)
			out = append(out, partition)
		}
	}
	return out
}

// FubiniNumber returns the ordered Bell number a(n): the number of ordered
// set partitions of an n-element set, hence the facet count of the
// one-round IIS complex over an (n-1)-simplex.
func FubiniNumber(n int) int {
	// a(n) = sum_{k=1..n} C(n,k) a(n-k); a(0) = 1.
	a := make([]int, n+1)
	a[0] = 1
	for m := 1; m <= n; m++ {
		c := 1 // C(m, k)
		for k := 1; k <= m; k++ {
			c = c * (m - k + 1) / k
			a[m] += c * a[m-k]
		}
	}
	return a[n]
}
