package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/store"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// inputSimplex is the service's input labeling (process i holds 'a'+i),
// so in-process builds hash identically to served ones.
func inputSimplex(m int) topology.Simplex {
	vs := make(topology.Simplex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return vs
}

// answer is what a response must agree on with an independent
// in-process computation: the complex's identity and size, its Betti
// numbers, and a decision search's verdict.
type answer struct {
	Hash     string
	Facets   int
	Betti    []int
	Solvable *bool
}

// answerOf extracts the checked fields from a response body.
func answerOf(body []byte) (answer, error) {
	var doc struct {
		Complex struct {
			Facets        int    `json:"facets"`
			CanonicalHash string `json:"canonical_hash"`
		} `json:"complex"`
		Betti    []int `json:"betti"`
		BettiZ2  []int `json:"betti_z2"`
		Solvable *bool `json:"solvable"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, err
	}
	a := answer{Hash: doc.Complex.CanonicalHash, Facets: doc.Complex.Facets, Betti: doc.Betti, Solvable: doc.Solvable}
	if a.Betti == nil {
		a.Betti = doc.BettiZ2
	}
	return a, nil
}

// mismatch describes how got differs from want, or returns "" if they
// agree on every field want carries.
func (want answer) mismatch(got answer) string {
	switch {
	case got.Hash != want.Hash:
		return fmt.Sprintf("canonical_hash %s, want %s", got.Hash, want.Hash)
	case got.Facets != want.Facets:
		return fmt.Sprintf("%d facets, want %d", got.Facets, want.Facets)
	case !slices.Equal(got.Betti, want.Betti):
		return fmt.Sprintf("betti %v, want %v", got.Betti, want.Betti)
	case (got.Solvable == nil) != (want.Solvable == nil):
		return "solvable present on one side only"
	case got.Solvable != nil && *got.Solvable != *want.Solvable:
		return fmt.Sprintf("solvable %v, want %v", *got.Solvable, *want.Solvable)
	}
	return ""
}

// replayer re-runs a request's server-side work in the benchmark
// process, through the public functions of each layer the service calls
// (modelspec, roundop, pc, topology, homology, task, store, jobs), with
// one span per call. It serves two purposes: its answers are the
// independent check the benchmark holds responses to, and its spans are
// the traced run's per-layer ledger. It mirrors the service's cost
// structure — one hash per Betti cache lookup, one statistics pass per
// response, one marshal and one store write — without importing the
// service's unexported code.
type replayer struct {
	tr      *tracer
	workers int
	engine  *homology.Engine
	counts  *obs.Tracker // engine counters: morse_removed, morse_critical
	st      *store.Store
	betti   map[string][]int // in-memory Betti cache by canonical hash, as the service keeps
	shards  int              // shards enumerated by build
	facets  int              // facets of the complexes build produced
}

func newReplayer(tr *tracer, dir string, workers int) (*replayer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &replayer{
		tr:      tr,
		workers: workers,
		engine:  homology.NewEngine(workers, nil),
		counts:  obs.NewTracker(),
		st:      st,
		betti:   map[string][]int{},
	}, nil
}

// build enumerates the instance's R-round complex over input the way a
// single-worker build does: plan the shards, run every shard into one
// local result, and merge it into the returned result.
func (r *replayer) build(parent *span, inst *modelspec.Instance, input topology.Simplex) (*pc.Result, error) {
	if inst.EmptyFor(input) {
		return pc.NewResult(), nil
	}
	var plan *roundop.ShardPlan
	var err error
	r.tr.around(parent, "roundop.plan", func() { plan, err = roundop.PlanShards(inst.Operator(), input, inst.R) })
	if err != nil {
		return nil, err
	}
	local := pc.NewResult()
	r.tr.around(parent, "roundop.enumerate", func() {
		for i := 0; i < plan.NumShards() && err == nil; i++ {
			err = plan.RunShard(local, i)
		}
	})
	if err != nil {
		return nil, err
	}
	r.shards += plan.NumShards()
	res := pc.NewResult()
	r.tr.around(parent, "pc.merge", func() { res.Merge(local) })
	return res, nil
}

// stats is the per-response statistics pass every endpoint reports
// (f-vector, sizes, Euler characteristic, canonical hash).
func (r *replayer) stats(parent *span, c *topology.Complex, a *answer) {
	r.tr.around(parent, "topology.stats", func() {
		_ = c.FVector()
		a.Facets = len(c.Facets())
		_ = c.Size()
		_ = c.EulerCharacteristic()
		a.Hash = c.CanonicalHash()
	})
}

// bettiZ2 is the cached GF(2) path: hash for the cache key, then reduce
// on a miss (capped at upto when upto >= 0).
func (r *replayer) bettiZ2(ctx context.Context, parent *span, c *topology.Complex, upto int) ([]int, error) {
	var hash string
	r.tr.around(parent, "topology.hash", func() { hash = c.CanonicalHash() })
	if b, ok := r.betti[hash]; ok {
		if upto >= 0 && upto < len(b)-1 {
			return b[:upto+1], nil
		}
		return b, nil
	}
	var b []int
	var err error
	r.tr.around(parent, "homology.betti", func() {
		if upto >= 0 {
			b, err = r.engine.BettiZ2UpToCtx(ctx, c, upto)
		} else {
			b, err = r.engine.BettiZ2Ctx(ctx, c)
		}
	})
	if err == nil && (upto < 0 || upto >= c.Dim()) {
		r.betti[hash] = b
	}
	return b, err
}

// finish marshals the response-shaped document and writes it to the
// replay store, as the service persists every computed response.
func (r *replayer) finish(parent *span, key string, a answer) error {
	var body []byte
	var err error
	r.tr.around(parent, "encode.marshal", func() { body, err = json.Marshal(a) })
	if err != nil {
		return err
	}
	r.tr.around(parent, "store.put", func() { err = r.st.Put(key, body) })
	return err
}

// compute replays one query's miss path and returns its answer.
func (r *replayer) compute(ctx context.Context, parent *span, q query) (answer, error) {
	ctx = obs.WithTracker(ctx, r.counts)
	root := r.tr.begin(parent, "replay."+q.Endpoint)
	defer root.end()
	var a answer
	if q.Endpoint == "pseudosphere" {
		return a, r.pseudosphere(ctx, root, q, &a)
	}
	var inst *modelspec.Instance
	var err error
	r.tr.around(root, "modelspec.parse", func() { inst, err = q.instance() })
	if err != nil {
		return a, err
	}
	if q.Endpoint == "decision" {
		return a, r.decision(ctx, root, q, inst, &a)
	}
	input := inputSimplex(inst.M)
	r.tr.around(root, "modelspec.price", func() {
		_ = inst.InsertionFloor()
		_, err = inst.Estimate(input)
	})
	if err != nil {
		return a, err
	}
	res, err := r.build(root, inst, input)
	if err != nil {
		return a, err
	}
	c := res.Complex
	if q.Endpoint == "connectivity" {
		switch q.Params["field"] {
		case "", "z2":
			upto := -1
			if raw, ok := q.Params["upto"]; ok {
				if upto, err = strconv.Atoi(raw); err != nil {
					return a, err
				}
			}
			a.Betti, err = r.bettiZ2(ctx, root, c, upto)
		case "gfp":
			p, perr := strconv.ParseInt(q.Params["p"], 10, 64)
			if perr != nil {
				return a, perr
			}
			r.tr.around(root, "homology.betti", func() { a.Betti, err = homology.BettiGFpMorse(c, p) })
		case "q":
			r.tr.around(root, "homology.betti", func() { a.Betti = homology.BettiQMorse(c) })
		default:
			return a, fmt.Errorf("unknown field %q", q.Params["field"])
		}
		if err != nil {
			return a, err
		}
	}
	r.stats(root, c, &a)
	r.facets += a.Facets
	return a, r.finish(root, "replay|"+q.ident(), a)
}

func splitValues(raw string) []string {
	if raw == "" {
		return []string{"0", "1"}
	}
	return strings.Split(raw, ",")
}

func (r *replayer) pseudosphere(ctx context.Context, root *span, q query, a *answer) error {
	n, err := strconv.Atoi(q.Params["n"])
	if err != nil {
		return err
	}
	var c *topology.Complex
	r.tr.around(root, "core.pseudosphere", func() {
		c, err = core.Uniform(core.ProcessSimplex(n), splitValues(q.Params["values"]))
	})
	if err != nil {
		return err
	}
	if q.Params["betti"] != "false" {
		if a.Betti, err = r.bettiZ2(ctx, root, c, -1); err != nil {
			return err
		}
	}
	r.stats(root, c, a)
	return r.finish(root, "replay|"+q.ident(), *a)
}

func (r *replayer) decision(ctx context.Context, root *span, q query, inst *modelspec.Instance, a *answer) error {
	values := splitValues(q.Params["values"])
	agree, err := strconv.Atoi(q.Params["agree"])
	if err != nil {
		return err
	}
	limit, err := strconv.ParseInt(q.Params["limit"], 10, 64)
	if err != nil {
		return err
	}
	r.tr.around(root, "modelspec.price", func() {
		rep := make(topology.Simplex, inst.N+1)
		for i := range rep {
			rep[i] = topology.Vertex{P: i, Label: values[0]}
		}
		_, err = inst.Estimate(rep)
	})
	if err != nil {
		return err
	}
	res := pc.NewResult()
	for _, input := range core.InputFacets(inst.N, values) {
		sub, err := r.build(root, inst, input)
		if err != nil {
			return err
		}
		r.tr.around(root, "pc.merge", func() { res.Merge(sub) })
	}
	var found bool
	r.tr.around(root, "task.search", func() {
		ann := task.AnnotateViews(res.Complex, res.Views)
		_ = task.SearchSpaceLog2(ann)
		_, found, err = task.FindDecisionParallelCtx(ctx, ann, agree, limit, r.workers)
	})
	if err != nil {
		return err
	}
	a.Solvable = &found
	r.stats(root, res.Complex, a)
	r.facets += a.Facets
	return r.finish(root, "replay|"+q.ident(), *a)
}

// hit replays a warm request's server-side path: resolve the model
// (modelspec parses every model request before the store lookup) and
// read the stored response. The body must already be in the replay
// store under the query's key (see seed).
func (r *replayer) hit(parent *span, q query, want []byte) error {
	root := r.tr.begin(parent, "replay.hit")
	defer root.end()
	if q.Endpoint != "pseudosphere" {
		var err error
		r.tr.around(root, "modelspec.parse", func() { _, err = q.instance() })
		if err != nil {
			return err
		}
	}
	var got []byte
	var ok bool
	r.tr.around(root, "store.get", func() { got, ok = r.st.Get("replay|" + q.ident()) })
	if !ok || !bytes.Equal(got, want) {
		return fmt.Errorf("replay store returned different bytes for %s", q)
	}
	return nil
}

// seed writes a response body to the replay store, untraced.
func (r *replayer) seed(q query, body []byte) error {
	return r.st.Put("replay|"+q.ident(), body)
}

// timedCkpt is a roundop.Checkpointer over a real job checkpoint log
// that records a span around every flush, so the job path's encode and
// fsync cost is measured where it happens.
type timedCkpt struct {
	ck      *jobs.CheckpointLog
	tr      *tracer
	parent  *span
	flushes int
}

func (t *timedCkpt) Restore(total int) ([]bool, *pc.Result, error) { return t.ck.Restore(total) }

func (t *timedCkpt) Flush(done []int, delta *pc.Result) error {
	s := t.tr.begin(t.parent, "jobs.flush")
	defer s.end()
	t.flushes++
	return t.ck.Flush(done, delta)
}

// jobFlushEvery is the service's default job checkpoint cadence (shards
// per flush), which the job-path replay runs at.
const jobFlushEvery = 8

// jobReplay is the job path's ledger: the build through
// Instance.BuildCkpt over a real checkpoint log at the service's flush
// cadence, then the rank-checkpointed reduction, the statistics pass, the
// marshal and the store write. It returns the answer, the number of
// flushes, and the log's size in bytes.
func (r *replayer) jobReplay(ctx context.Context, parent *span, q query, dir string) (answer, int, int64, error) {
	ctx = obs.WithTracker(ctx, r.counts)
	root := r.tr.begin(parent, "replay.job")
	defer root.end()
	var a answer
	var inst *modelspec.Instance
	var err error
	r.tr.around(root, "modelspec.parse", func() { inst, err = q.instance() })
	if err != nil {
		return a, 0, 0, err
	}
	input := inputSimplex(inst.M)
	r.tr.around(root, "modelspec.price", func() { _, err = inst.Estimate(input) })
	if err != nil {
		return a, 0, 0, err
	}
	path := filepath.Join(dir, "replay.ckpt")
	var ck *jobs.CheckpointLog
	r.tr.around(root, "jobs.open", func() { ck, err = jobs.OpenCheckpointLog(path) })
	if err != nil {
		return a, 0, 0, err
	}
	defer ck.Close()
	build := r.tr.begin(root, "jobs.buildckpt")
	tc := &timedCkpt{ck: ck, tr: r.tr, parent: build}
	res, err := inst.BuildCkpt(ctx, input, r.workers, jobFlushEvery, tc)
	build.end()
	if err != nil {
		return a, 0, 0, err
	}
	c := res.Complex
	var hash string
	r.tr.around(root, "topology.hash", func() { hash = c.CanonicalHash() })
	betti := r.tr.begin(root, "homology.betti")
	a.Betti, err = r.engine.BettiZ2CtxResume(ctx, c, ck.KnownRanks(hash), func(d, rank int) {
		s := r.tr.begin(betti, "jobs.putrank")
		defer s.end()
		if perr := ck.PutRank(hash, d, rank); perr != nil {
			fmt.Fprintln(os.Stderr, "bench: rank checkpoint:", perr)
		}
	})
	betti.end()
	if err != nil {
		return a, 0, 0, err
	}
	r.stats(root, c, &a)
	if err := r.finish(root, "replay|job|"+q.ident(), a); err != nil {
		return a, 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return a, 0, 0, err
	}
	return a, tc.flushes, fi.Size(), nil
}

// engineBuild is the in-process engine measurement: Instance.Build on one
// worker under a cancellable context (the same sharded path a served
// build takes), the canonical hash, and the GF(2) Betti numbers.
func engineBuild(q query) (answer, time.Duration, error) {
	inst, err := q.instance()
	if err != nil {
		return answer{}, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	res, err := inst.Build(ctx, inputSimplex(inst.M), 1)
	if err != nil {
		return answer{}, 0, err
	}
	hash := res.Complex.CanonicalHash()
	betti, err := homology.NewEngine(1, nil).BettiZ2Ctx(ctx, res.Complex)
	elapsed := time.Since(start)
	if err != nil {
		return answer{}, 0, err
	}
	// The top of the f-vector counts the facets of this pure complex
	// without Facets(), whose maximality pass costs more than the build.
	fv := res.Complex.FVector()
	return answer{Hash: hash, Facets: fv[len(fv)-1], Betti: betti}, elapsed, nil
}
