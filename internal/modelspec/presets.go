package modelspec

import (
	"fmt"
	"math"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
)

// The paper's models register here as presets: each entry is its model
// package's Params plus the bookkeeping the serving tier needs (key
// fields, validation, the facet count). Adding a model to the
// service is adding one Register call — no serving-tier changes.
func init() {
	Register(Model{
		Name:   "async",
		Fields: []string{"f"},
		Validate: func(p Params) error {
			return asyncParams(p).Validate()
		},
		Operator: func(p Params) roundop.Operator {
			return asyncParams(p).Operator()
		},
		Count: asyncCount,
	})
	Register(Model{
		Name:   "sync",
		Fields: []string{"k"},
		Validate: func(p Params) error {
			return syncParams(p).Validate()
		},
		Operator: func(p Params) roundop.Operator {
			return syncParams(p).Operator()
		},
		Count: syncCount,
	})
	Register(Model{
		Name:   "semisync",
		Fields: []string{"k", "c1", "c2", "d"},
		Validate: func(p Params) error {
			return semisyncParams(p).Validate()
		},
		Operator: func(p Params) roundop.Operator {
			return semisyncParams(p).Operator()
		},
		Count: func(p Params, dim int) int64 {
			sp := semisyncParams(p)
			return crashCount(dim, p.R, sp.PerRound, sp.Total, sp.Micro())
		},
	})
	Register(Model{
		Name: "iis",
		Validate: func(p Params) error {
			if p.N > maxIISN {
				return fmt.Errorf("iis: n=%d out of range [0, %d]", p.N, maxIISN)
			}
			return nil
		},
		Operator: func(Params) roundop.Operator { return iis.Operator() },
		Count:    iisCount,
	})
	// The per-round-only crash budget: at most k crashes in any round,
	// with no cumulative cap. Over r rounds at most r*k processes can
	// fail, so the budget is Section 7's with f = r*k — the same compiled
	// model as the crash{k} spec adversary.
	Register(Model{
		Name:   "custom",
		Fields: []string{"k"},
		Validate: func(p Params) error {
			return syncParams(p).Validate()
		},
		Operator: func(p Params) roundop.Operator {
			return syncParams(p).Operator()
		},
		Count: syncCount,
	})
}

// maxIISN bounds the IIS preset's n. Pricing IIS is arithmetic at any n,
// but building it is not: the first round's Branches call enumerates
// every ordered partition of the participants, each a branch with views
// of its own, 47,293 of them at n = 6 and 545,835 at n = 7.
const maxIISN = 6

// asyncCount is the facet-insertion count of A^r over a dim-face, from
// Lemma 11: each of the dim+1 participants independently hears itself
// and any n-f or more of the other dim, so a round has V^(dim+1) facets,
//
//	V = sum_{j = max(0, n-f)}^{dim} C(dim, j),
//
// and each facet keeps all dim+1 participants for the next round. Below
// n-f+1 participants the complex is empty (Section 6): the count is 0.
func asyncCount(p Params, dim int) int64 {
	if asyncParams(p).DegenerateInput(dim) {
		return 0
	}
	v, choose := int64(0), int64(1) // choose = C(dim, j), exact for dim <= MaxN
	for j := dim; j >= max(0, p.N-p.F); j-- {
		v += choose
		choose = choose * int64(j) / int64(dim-j+1)
	}
	return pc.SatPow(v, (dim+1)*p.R)
}

// iisCount is the facet-insertion count of an R-round IIS build over a
// dim-face: one round over dim+1 participants has one facet per ordered
// partition, Fubini(dim+1) of them (Kozlov, 1404.5813), and each facet's
// next round has all dim+1 participants again.
func iisCount(p Params, dim int) int64 {
	return pc.SatPow(int64(iis.FubiniNumber(dim+1)), p.R)
}

// syncCount prices the sync and custom presets, which compile to the
// same crash budget.
func syncCount(p Params, dim int) int64 {
	sp := syncParams(p)
	return crashCount(dim, p.R, sp.PerRound, sp.Total, 1)
}

// crashCount is the facet-insertion count of an r-round build over a
// dim-face under crash failures, at most k per round and b in total, from
// the branch sizes of Lemmas 14 and 19. A round over P processes has a
// branch per failure set of j <= min(k, b, P-1) processes and per failure
// pattern, mu^j of them (mu = 1 in the synchronous model, ceil(d/c1)
// microrounds in the semi-synchronous one), and each of the P-j survivors
// hears an arbitrary subset of the j crashed processes:
//
//	E(P, r, b) = sum_j C(P, j) * mu^j * 2^(j(P-j)) * E(P-j, r-1, b-j)
//
// with E(P, 0, b) = 1, saturating.
func crashCount(dim, r, k, b, mu int) int64 {
	memo := make(map[[3]int]int64)
	var e func(p, r, b int) int64
	e = func(p, r, b int) int64 {
		if r == 0 {
			return 1
		}
		b = min(b, p-1) // every round leaves a survivor
		key := [3]int{p, r, b}
		if v, ok := memo[key]; ok {
			return v
		}
		total, choose := int64(0), int64(1) // choose = C(p, j), exact for p <= MaxN+1
		for j := 0; j <= min(k, b); j++ {
			if j > 0 {
				choose = choose * int64(p-j+1) / int64(j)
			}
			term := pc.SatMul(choose, pc.SatMul(pc.SatPow(int64(mu), j), pc.SatPow(2, j*(p-j))))
			term = pc.SatMul(term, e(p-j, r-1, b-j))
			total = min(total, math.MaxInt64-term) + term
		}
		memo[key] = total
		return total
	}
	return e(dim+1, r, b)
}

func asyncParams(p Params) asyncmodel.Params {
	return asyncmodel.Params{N: p.N, F: p.F}
}

// syncParams maps the preset tuple to Section 7's failure structure: at
// most k crashes per round and f = r*k in total.
func syncParams(p Params) syncmodel.Params {
	k := perRound(p)
	return syncmodel.Params{PerRound: k, Total: p.R * k}
}

func semisyncParams(p Params) semisync.Params {
	k := perRound(p)
	return semisync.Params{C1: p.C1, C2: p.C2, D: p.D, PerRound: k, Total: p.R * k}
}

// perRound is the tuple's per-round crash bound k clamped to the n+1
// processes: no failure set is larger, so the clamp changes no complex,
// and it keeps r*k from overflowing for huge k.
func perRound(p Params) int {
	return min(p.K, p.N+1)
}
