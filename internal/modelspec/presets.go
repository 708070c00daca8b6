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
// fields, validation, degenerate conventions). Adding a model to the
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
		// Section 6's convention: A^r(S^m) is empty when m < n-f. This used
		// to be a model-name check in serve's build path; now it is part of
		// the model's registration.
		Degenerate: func(p Params, inputDim int) bool {
			return asyncParams(p).DegenerateInput(inputDim)
		},
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
		Floor: syncFloor,
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
		Floor: func(p Params) int64 {
			sp := semisyncParams(p)
			return crashFloor(p.M, p.R, sp.PerRound, sp.Total, sp.Micro())
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
		Floor:    iisFloor,
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
		Floor: syncFloor,
	})
}

// maxIISN bounds the IIS preset's n. Pricing an IIS build calls Branches,
// which enumerates every ordered partition of the participants, each a
// branch with views of its own: 47,293 of them at n = 6 and 545,835 at
// n = 7, too many to build just to price a request.
const maxIISN = 6

// iisFloor is the exact facet-insertion count of an R-round IIS build over
// the m-face: one round over m+1 participants has one facet per ordered
// partition, Fubini(m+1) of them (Kozlov, 1404.5813), and each facet's
// next round has all m+1 participants again. It lets admission refuse a
// deep IIS build before the estimate walk enumerates a single partition.
func iisFloor(p Params) int64 {
	return satPow(int64(iis.FubiniNumber(p.M+1)), p.R)
}

// syncFloor prices the sync and custom presets, which compile to the
// same crash budget.
func syncFloor(p Params) int64 {
	sp := syncParams(p)
	return crashFloor(p.M, p.R, sp.PerRound, sp.Total, 1)
}

// crashFloor is the exact facet-insertion count of an r-round build over
// the m-face under crash failures, at most k per round and b in total,
// from the branch sizes of Lemmas 14 and 19. A round over P processes
// has a branch per failure set of j <= min(k, b, P-1) processes and per
// failure pattern, mu^j of them (mu = 1 in the synchronous model,
// ceil(d/c1) microrounds in the semi-synchronous one), and each of the
// P-j survivors hears an arbitrary subset of the j crashed processes:
//
//	E(P, r, b) = sum_j C(P, j) * mu^j * 2^(j(P-j)) * E(P-j, r-1, b-j)
//
// with E(P, 0, b) = 1, saturating. It lets admission refuse an
// exponential build before the estimate walk calls Branches at every
// node of its branch tree.
func crashFloor(m, r, k, b, mu int) int64 {
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
			term := pc.SatMul(choose, pc.SatMul(satPow(int64(mu), j), satPow(2, j*(p-j))))
			term = pc.SatMul(term, e(p-j, r-1, b-j))
			total = min(total, math.MaxInt64-term) + term
		}
		memo[key] = total
		return total
	}
	return e(m+1, r, b)
}

// satPow returns base^exp for nonnegative base, saturating.
func satPow(base int64, exp int) int64 {
	v := int64(1)
	for range exp {
		v = pc.SatMul(v, base)
	}
	return v
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
