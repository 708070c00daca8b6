package modelspec

import (
	"fmt"

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
	per := int64(iis.FubiniNumber(p.M + 1))
	total := int64(1)
	for range p.R {
		total = pc.SatMul(total, per)
	}
	return total
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
