package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// complexStats is the JSON shape every endpoint reports a complex in.
type complexStats struct {
	Dim           int    `json:"dim"`
	FVector       []int  `json:"f_vector"`
	Facets        int    `json:"facets"`
	Simplices     int    `json:"simplices"`
	Euler         int    `json:"euler_characteristic"`
	CanonicalHash string `json:"canonical_hash"`
}

func statsOf(c *topology.Complex) complexStats {
	return complexStats{
		Dim:           c.Dim(),
		FVector:       c.FVector(),
		Facets:        c.FacetCount(),
		Simplices:     c.Size(),
		Euler:         c.EulerCharacteristic(),
		CanonicalHash: c.CanonicalHash(),
	}
}

// endpointQuery is one computation the service can run two ways: behind
// the synchronous GET spine or inside an async job. It carries the
// request's canonical cache key, its price check (arithmetic, so job
// submission also runs it to refuse oversized work before queueing it),
// and the compute closure. compute's ck is non-nil only for job runs,
// where it threads the construction-shard and homology-rank checkpoint
// seams.
type endpointQuery struct {
	key     string
	price   func() error
	compute func(ctx context.Context, ck *jobs.CheckpointLog) (any, error)
}

// run prices the query against this server's budgets, then computes it.
func (bq endpointQuery) run(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
	if err := bq.price(); err != nil {
		return nil, err
	}
	return bq.compute(ctx, ck)
}

// buildQuery validates q (plus an optional inline model spec) for the
// named endpoint and returns its query plan. It is the single
// parse-and-plan path shared by the GET handlers, the POST inline-spec
// handlers, the job subsystem's Prepare/Run hooks, and the cluster
// router's key shaping.
func (s *Server) buildQuery(endpoint string, q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	switch endpoint {
	case "pseudosphere":
		if spec != nil {
			return endpointQuery{}, badRequest("endpoint pseudosphere does not take a model spec")
		}
		return s.buildPseudosphere(q)
	case "rounds":
		return s.buildRounds(q, spec)
	case "connectivity":
		return s.buildConnectivity(q, spec)
	case "decision":
		return s.buildDecision(q, spec)
	default:
		return endpointQuery{}, badRequest("unknown endpoint %q (want pseudosphere, rounds, connectivity, or decision)", endpoint)
	}
}

// handleEndpoint adapts an endpoint's query plan to the synchronous GET
// spine.
func (s *Server) handleEndpoint(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		bq, err := s.buildQuery(endpoint, q, nil)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		s.serveQuery(w, r, endpoint, bq.key, q, func(ctx context.Context) (any, error) {
			return bq.run(ctx, nil)
		})
	}
}

// inlineRequest is the POST body of the model endpoints: an inline model
// spec plus the endpoint's other parameters under their query names —
// the same shape a job spec uses, minus the endpoint (which is the URL).
type inlineRequest struct {
	Model  json.RawMessage   `json:"model"`
	Params map[string]string `json:"params,omitempty"`
}

// parseInlineBody decodes a POST body into the query values and model
// spec buildQuery consumes. The server and the fleet router share it, so
// both derive identical canonical keys from the same bytes.
func parseInlineBody(body []byte) (url.Values, *modelspec.Spec, error) {
	if len(body) == 0 {
		return nil, nil, badRequest(`empty body; POST {"model": {...}, "params": {...}}`)
	}
	var req inlineRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, badRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return nil, nil, badRequest("trailing data after the request body")
	}
	if len(req.Model) == 0 {
		return nil, nil, badRequest(`request body has no "model" spec`)
	}
	spec, err := modelspec.Parse(req.Model)
	if err != nil {
		return nil, nil, err
	}
	q := make(url.Values, len(req.Params))
	for k, v := range req.Params {
		q.Set(k, v)
	}
	return q, spec, nil
}

// readBody reads a bounded request body; oversized bodies map to 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, overBudget("request body exceeds %d bytes", maxJobBody)
		}
		return nil, badRequest("reading request body: %v", err)
	}
	return body, nil
}

// handleEndpointPost adapts an endpoint's query plan to the POST form:
// the body carries an inline model spec, and the canonical key it
// compiles to is the same identity the GET spine caches, delegates, and
// singleflights on — so a spec equivalent to a preset hits the preset's
// cache entries.
func (s *Server) handleEndpointPost(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		q, spec, err := parseInlineBody(body)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		bq, err := s.buildQuery(endpoint, q, spec)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		// Ring delegation re-sends this request to the key's owner; restore
		// the consumed body so the forwarded copy carries it.
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		s.serveQuery(w, r, endpoint, bq.key, r.URL.Query(), func(ctx context.Context) (any, error) {
			return bq.run(ctx, nil)
		})
	}
}

// bettiZ2 computes GF(2) Betti numbers, threading the per-dimension rank
// checkpoint seam when a job checkpoint log is attached: ranks recorded
// by a killed attempt are trusted and skipped, newly reduced ranks are
// persisted as soon as they complete.
func (s *Server) bettiZ2(ctx context.Context, c *topology.Complex, ck *jobs.CheckpointLog) ([]int, error) {
	if ck == nil {
		return s.engine.BettiZ2Ctx(ctx, c)
	}
	hash := c.CanonicalHash()
	return s.engine.BettiZ2CtxResume(ctx, c, ck.KnownRanks(hash), func(d, rank int) {
		if err := ck.PutRank(hash, d, rank); err != nil {
			s.cfg.Log.Printf("serve: rank checkpoint: %v", err)
		}
	})
}

// buildPseudosphere serves psi(S^n; V) (Definition 3) statistics with
// optional Betti numbers and connectivity.
func (s *Server) buildPseudosphere(q url.Values) (endpointQuery, error) {
	n, err := qInt(q, "n", 2)
	if err != nil {
		return endpointQuery{}, err
	}
	values, err := qValues(q)
	if err == nil && (n < 0 || n > modelspec.MaxN) {
		err = badRequest("n=%d out of range [0, %d]", n, modelspec.MaxN)
	}
	if err != nil {
		return endpointQuery{}, err
	}
	withBetti := q.Get("betti") != "false"
	return endpointQuery{
		key: fmt.Sprintf("n=%d|values=%s|betti=%v", n, canonicalValues(values), withBetti),
		price: func() error {
			if facets := pc.SatPow(int64(len(values)), n+1); facets > s.cfg.MaxFacets {
				return overBudget("psi(S^%d; %d values) has %d facets, budget %d", n, len(values), facets, s.cfg.MaxFacets)
			}
			return nil
		},
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			ps, err := core.Uniform(core.ProcessSimplex(n), values)
			if err != nil {
				return nil, badRequestError{msg: err.Error()}
			}
			out := struct {
				N            int          `json:"n"`
				Values       []string     `json:"values"`
				Complex      complexStats `json:"complex"`
				BettiZ2      []int        `json:"betti_z2,omitempty"`
				Connectivity *int         `json:"connectivity,omitempty"`
			}{N: n, Values: values, Complex: statsOf(ps)}
			if withBetti {
				betti, err := s.bettiZ2(ctx, ps, ck)
				if err != nil {
					return nil, err
				}
				out.BettiZ2 = betti
				conn := homology.ConnectivityFromBetti(betti)
				out.Connectivity = &conn
			}
			return out, nil
		},
	}, nil
}

// admitConstruction is the one facet-budget check of a construction:
// copies builds of inst over input's dimension, priced by the model's
// exact arithmetic count, so an absurd request is refused without
// enumerating anything.
func (s *Server) admitConstruction(inst *modelspec.Instance, input topology.Simplex, copies int64) error {
	est, _ := inst.Estimate(input)
	if total := pc.SatMul(est, copies); total > s.cfg.MaxFacets {
		return overBudget("%s prices at %d facet insertions, budget %d", inst.Key, total, s.cfg.MaxFacets)
	}
	return nil
}

// buildRounds serves the r-round complex R^r(S^m) of a model.
func (s *Server) buildRounds(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	return endpointQuery{
		key:   inst.Key,
		price: func() error { return s.admitConstruction(inst, core.LabeledSimplex(inst.M), 1) },
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			res, err := s.buildModel(ctx, inst, core.LabeledSimplex(inst.M), ck)
			if err != nil {
				return nil, err
			}
			return struct {
				Model           string               `json:"model"`
				Params          modelspec.ParamsJSON `json:"params"`
				EstimatedFacets int64                `json:"estimated_facet_insertions"`
				Complex         complexStats         `json:"complex"`
				Views           int                  `json:"views"`
			}{inst.Model, inst.Params, inst.InsertionFloor(), statsOf(res.Complex), len(res.Views)}, nil
		},
	}, nil
}

// buildModel constructs the r-round complex, checkpointing at roundop
// shard boundaries when a job checkpoint log is attached. Model
// conventions (like async's empty-below-threshold inputs) live in the
// compiled instance — serve has no per-model checks.
func (s *Server) buildModel(ctx context.Context, inst *modelspec.Instance, input topology.Simplex, ck *jobs.CheckpointLog) (*pc.Result, error) {
	if res, handled, err := s.distBuild(ctx, inst, input, ck); handled {
		return res, err
	}
	if ck == nil {
		return inst.Build(ctx, input, 1)
	}
	return inst.BuildCkpt(ctx, input, 1, s.cfg.JobCheckpointEvery, ck)
}

// buildConnectivity serves Betti numbers and connectivity of a model's
// round complex over GF(2) (cached by canonical hash via the engine),
// GF(p), or Q. All three fields run the engine's coreduction and column
// reduction under the request context, so a timeout frees the compute
// slot within a column. An optional upto=k parameter (GF(2) only) caps
// the reduction at dimension k: the response then reports Betti numbers
// 0..k and min(connectivity, k) — top-dimensional boundary matrices are
// never reduced, which is the cheap way to ask "is this complex at least
// k-connected?".
func (s *Server) buildConnectivity(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	field := q.Get("field")
	if field == "" {
		field = "z2"
	}
	upto := -1
	if raw := q.Get("upto"); raw != "" {
		if upto, err = qInt(q, "upto", -1); err != nil {
			return endpointQuery{}, err
		}
		if upto < 0 {
			return endpointQuery{}, badRequest("upto=%d must be nonnegative", upto)
		}
		if field != "z2" {
			return endpointQuery{}, badRequest("upto requires field=z2 (got field=%q)", field)
		}
	}
	p := 0
	switch field {
	case "z2", "q":
	case "gfp":
		if p, err = qInt(q, "p", 3); err != nil {
			return endpointQuery{}, err
		}
		// Validate the modulus here, not in the engine after a full
		// construction: a bad p must cost a 400, not a built complex — and
		// the engine does not test primality, so a composite p would give
		// a silently wrong answer.
		if p > maxGFpP {
			return endpointQuery{}, badRequest("p=%d exceeds the limit of %d", p, maxGFpP)
		}
		if !isPrime(p) {
			return endpointQuery{}, badRequest("p=%d is not a prime", p)
		}
	default:
		return endpointQuery{}, badRequest("unknown field %q (want z2, gfp, or q)", field)
	}
	key := inst.Key + "|field=" + field
	if field == "gfp" {
		key += "|p=" + strconv.Itoa(p)
	}
	if upto >= 0 {
		key += "|upto=" + strconv.Itoa(upto)
	}
	return endpointQuery{
		key:   key,
		price: func() error { return s.admitConstruction(inst, core.LabeledSimplex(inst.M), 1) },
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			res, err := s.buildModel(ctx, inst, core.LabeledSimplex(inst.M), ck)
			if err != nil {
				return nil, err
			}
			c := res.Complex
			var betti []int
			switch {
			case field == "z2" && upto >= 0:
				// Capped vectors are partial, so they bypass the rank
				// checkpoint seam (whose entries must stay full-matrix
				// ranks); the engine caches them under cap-decorated keys.
				if betti, err = s.engine.BettiZ2UpToCtx(ctx, c, upto); err != nil {
					return nil, err
				}
			case field == "z2":
				if betti, err = s.bettiZ2(ctx, c, ck); err != nil {
					return nil, err
				}
			case field == "gfp":
				// p was validated at parse, so the only error is ctx's.
				if betti, err = s.engine.BettiGFpCtx(ctx, c, int64(p)); err != nil {
					return nil, err
				}
			case field == "q":
				if betti, err = s.engine.BettiQCtx(ctx, c); err != nil {
					return nil, err
				}
			}
			conn := homology.ConnectivityFromBetti(betti)
			var uptoOut *int
			if upto >= 0 {
				uptoOut = &upto
			}
			return struct {
				Model        string               `json:"model"`
				Params       modelspec.ParamsJSON `json:"params"`
				Field        string               `json:"field"`
				P            int                  `json:"p,omitempty"`
				Upto         *int                 `json:"upto,omitempty"`
				Complex      complexStats         `json:"complex"`
				Betti        []int                `json:"betti"`
				Connectivity int                  `json:"connectivity"`
			}{inst.Model, inst.Params, field, p, uptoOut, statsOf(c), betti, conn}, nil
		},
	}, nil
}

// buildDecision runs the exact k-set-agreement solvability search
// (Theorems 5/7 shape: is the task solvable on this protocol complex?)
// over the model's round complex built from every input assignment. The
// search itself is not checkpointed — its state is a backtracking
// frontier, not a partition of independent shards — so a resumed
// decision job rebuilds the complex and searches again from the start.
func (s *Server) buildDecision(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	agree, err := qInt(q, "agree", 1)
	if err == nil && agree < 1 {
		err = badRequest("agree=%d must be positive", agree)
	}
	if err != nil {
		return endpointQuery{}, err
	}
	values, err := qValues(q)
	if err != nil {
		return endpointQuery{}, err
	}
	// The values become round-0 views, and a value holding an encoding
	// delimiter could make two local states share one vertex label.
	for _, v := range values {
		if err := views.CheckValue(v); err != nil {
			return endpointQuery{}, badRequest("%v", err)
		}
	}
	limit := s.cfg.NodeLimit
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v <= 0 {
			return endpointQuery{}, badRequest("limit=%q is not a positive integer", raw)
		}
		if v < limit {
			limit = v
		}
	}
	includeMap := q.Get("include_map") == "true"
	return endpointQuery{
		key: fmt.Sprintf("%s|agree=%d|values=%s|limit=%d|map=%v", inst.Key, agree, canonicalValues(values), limit, includeMap),
		// The protocol complex unions R^r over the |values|^(n+1) input
		// facets, each an n-face, and the count prices them all without
		// materializing a single one.
		price: func() error {
			return s.admitConstruction(inst, core.LabeledSimplex(inst.N), pc.SatPow(int64(len(values)), inst.N+1))
		},
		compute: func(ctx context.Context, _ *jobs.CheckpointLog) (any, error) {
			inputs := core.InputFacets(inst.N, values)
			res := pc.NewResult()
			for _, input := range inputs {
				sub, err := inst.Build(ctx, input, 1)
				if err != nil {
					return nil, err
				}
				res.Merge(sub)
			}
			ann := task.AnnotateViews(res.Complex, res.Views)
			bits := task.SearchSpaceLog2(ann)
			if bits > maxSearchBits {
				return nil, overBudget("decision search space is 2^%.0f candidates, budget 2^%d", bits, maxSearchBits)
			}
			dm, found, err := task.FindDecisionParallelCtx(ctx, ann, agree, limit, 1)
			if err != nil {
				return nil, err
			}
			out := struct {
				Model         string               `json:"model"`
				Params        modelspec.ParamsJSON `json:"params"`
				Agree         int                  `json:"agree"`
				Values        []string             `json:"values"`
				Complex       complexStats         `json:"complex"`
				SearchBits    float64              `json:"search_space_bits"`
				NodeLimit     int64                `json:"node_limit"`
				Solvable      bool                 `json:"solvable"`
				DecisionMap   []decisionRow        `json:"decision_map,omitempty"`
				DecisionVerts int                  `json:"decision_vertices,omitempty"`
			}{inst.Model, inst.Params, agree, values, statsOf(res.Complex), bits, limit, found, nil, len(dm)}
			if includeMap && found {
				out.DecisionMap = decisionRows(dm)
			}
			return out, nil
		},
	}, nil
}

// decisionRow is one vertex assignment of a decision map.
type decisionRow struct {
	P        int    `json:"p"`
	View     string `json:"view"`
	Decision string `json:"decision"`
}

func decisionRows(dm task.DecisionMap) []decisionRow {
	rows := make([]decisionRow, 0, len(dm))
	for v, val := range dm {
		rows = append(rows, decisionRow{P: v.P, View: v.Label, Decision: val})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].P != rows[j].P {
			return rows[i].P < rows[j].P
		}
		return rows[i].View < rows[j].View
	})
	return rows
}

// canonicalValues renders a value set for cache keys.
func canonicalValues(values []string) string {
	sorted := make([]string, len(values))
	copy(sorted, values)
	sort.Strings(sorted)
	out := ""
	for i, v := range sorted {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}
