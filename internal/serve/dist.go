package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"pseudosphere/internal/cluster"
	"pseudosphere/internal/distbuild"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// distState is the replica's distributed-construction side: the
// coordinator for builds this replica owns, the worker pool for builds
// its peers own, and the health view that keeps offers away from dead
// peers. Built only on fleet replicas configured with a DistThreshold.
type distState struct {
	coord  *distbuild.Coordinator
	pool   *distbuild.WorkerPool
	health *cluster.Health
	peers  []string // every peer base URL except self
	nextID atomic.Uint64
}

// offerClient posts build offers; short timeout — an offer is a small
// JSON document, and a peer that cannot accept one promptly is better
// treated as down.
var offerClient = &http.Client{Timeout: 5 * time.Second}

// setupDist wires the distributed-construction tier during New. The
// caller guarantees cfg.Cluster is set.
func (s *Server) setupDist() {
	cc := s.cfg.Cluster
	peers := make([]string, 0, len(cc.Peers))
	for _, p := range cc.Peers {
		if p != cc.Self {
			peers = append(peers, p)
		}
	}
	d := &distState{
		coord: distbuild.NewCoordinator(s.tracker),
		peers: peers,
		// The prober keeps the health view honest between builds: a worker
		// SIGKILLed mid-build is demoted by lease expiry, and re-admitted
		// here the moment its /healthz answers again.
		health: cluster.NewHealth(peers, 2*time.Second),
	}
	d.pool = &distbuild.WorkerPool{
		Self:    cc.Self,
		Compile: s.distCompile,
		Workers: s.cfg.Workers,
		Tracker: s.tracker,
	}
	s.dist = d
	// Fleet-internal endpoints, like cluster.KVPath: shard work arrives
	// from peers, not clients, and bypasses the admission pool — the
	// fleet already admitted the build once, on the coordinator.
	s.mux.HandleFunc("POST "+distbuild.OfferPath, d.pool.OfferHandler())
	s.mux.HandleFunc("POST "+distbuild.ClaimPath, d.coord.ClaimHandler())
	s.mux.HandleFunc("POST "+distbuild.CompletePath, d.coord.CompleteHandler())
}

// closeDist stops the worker pool and the health prober. Runs after the
// job manager closed (which cancels any coordinator Run in flight) and
// before the read-through flush.
func (s *Server) closeDist() {
	if s.dist == nil {
		return
	}
	s.dist.pool.Close()
	s.dist.health.Close()
}

// distCompile is the worker side of an offer: re-parse the model
// document with the same modelspec path every endpoint uses, check that
// the input is a face of the model's process simplex with labels a view
// can carry, re-price it against this replica's own facet budget (a
// worker never trusts the coordinator's arithmetic), and re-derive the
// deterministic shard plan the coordinator's leases index into.
func (s *Server) distCompile(offer *distbuild.BuildOffer) (*roundop.ShardPlan, error) {
	spec, err := modelspec.Parse(offer.Model)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	input, err := offer.InputSimplex()
	if err != nil {
		return nil, err
	}
	// InputSimplex sorts by process id and refuses negative ones, so the
	// last vertex bounds them all.
	if len(input) == 0 || input[len(input)-1].P > inst.N || inst.EmptyFor(input) {
		return nil, badRequest("offered input is not a face over processes 0..%d the model builds on", inst.N)
	}
	for _, v := range input {
		if err := views.CheckValue(v.Label); err != nil {
			return nil, badRequest("offered input: %v", err)
		}
	}
	if err := s.admitConstruction(inst, input, 1); err != nil {
		return nil, err
	}
	return roundop.PlanShards(inst.Operator(), input, inst.R)
}

// distBuild runs a construction across the fleet when it qualifies:
// distribution enabled, a multi-shard build at or above the estimate
// threshold, a spec document to ship, and at least one peer believed
// alive. Anything else reports handled=false and buildModel falls
// through to the local engine — distribution is an optimization, never
// a requirement.
//
// The merged complex is identical to the local build's (shards
// partition the facet product; the complex is a set), so CanonicalHash,
// caching, and every downstream verdict are unaffected by which path
// ran.
func (s *Server) distBuild(ctx context.Context, inst *modelspec.Instance, input topology.Simplex, ck *jobs.CheckpointLog) (*pc.Result, bool, error) {
	if s.dist == nil || s.cfg.DistThreshold <= 0 || inst.R < 1 {
		return nil, false, nil
	}
	doc := inst.SpecDoc()
	if doc == nil {
		return nil, false, nil
	}
	// An empty-by-convention build counts 0, below any threshold.
	if est, _ := inst.Estimate(input); est < s.cfg.DistThreshold {
		return nil, false, nil
	}
	live := false
	for _, p := range s.dist.peers {
		if s.dist.health.Up(p) {
			live = true
			break
		}
	}
	if !live {
		s.tracker.Counter("dist_no_peers").Add(1)
		return nil, false, nil
	}
	plan, err := roundop.PlanShards(inst.Operator(), input, inst.R)
	if err != nil || plan.NumShards() < 2 {
		return nil, false, nil
	}

	// The id is a handle, not an identity: resume-after-restart goes
	// through the checkpoint log, so the id only has to be unique among
	// this process's live builds. The serial suffix keeps two concurrent
	// endpoints over one model (rounds + connectivity share inst.Key)
	// from colliding in the coordinator's registry.
	parts := make([]string, 0, len(input)+2)
	parts = append(parts, inst.Key, fmt.Sprint(s.dist.nextID.Add(1)))
	for _, v := range input {
		parts = append(parts, fmt.Sprintf("%d=%s", v.P, v.Label))
	}
	id := sha256hex(parts...)

	s.offerToPeers(&distbuild.BuildOffer{
		Build:       id,
		Coordinator: s.cfg.Cluster.Self,
		Model:       doc,
		Input:       wireInput(input),
	})
	var ckpt roundop.Checkpointer
	if ck != nil { // a typed-nil *CheckpointLog must stay a nil interface
		ckpt = ck
	}
	s.tracker.Counter("dist_builds_coordinated").Add(1)
	res, err := s.dist.coord.Run(ctx, id, distbuild.BuildConfig{
		Plan:         plan,
		Ck:           ckpt,
		Lease:        s.cfg.DistLease,
		LocalWorkers: s.cfg.Workers,
		LocalName:    s.cfg.Cluster.Self,
		OnStolen: func(worker string) {
			// A worker that let a lease expire is dead or drowning either
			// way; stop offering it new builds until the prober clears it.
			s.tracker.Counter("dist_workers_demoted").Add(1)
			s.dist.health.MarkDown(worker)
		},
	})
	return res, true, err
}

// wireInput renders an input simplex for an offer.
func wireInput(input topology.Simplex) []distbuild.WireVert {
	out := make([]distbuild.WireVert, len(input))
	for i, v := range input {
		out[i] = distbuild.WireVert{P: v.P, L: v.Label}
	}
	return out
}

// sha256hex digests the parts into a hex build id.
func sha256hex(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p) //nolint:errcheck
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// offerToPeers invites every live peer to the build, in parallel; a
// peer that refuses or cannot be reached is demoted so the next build
// skips it until the prober sees it healthy again. Offers are
// best-effort and asynchronous: the coordinator's own local workers
// guarantee progress even if every offer fails.
func (s *Server) offerToPeers(offer *distbuild.BuildOffer) {
	body, err := json.Marshal(offer)
	if err != nil {
		return
	}
	for _, peer := range s.dist.peers {
		if !s.dist.health.Up(peer) {
			s.tracker.Counter("dist_offers_skipped").Add(1)
			continue
		}
		go func(peer string) {
			req, err := http.NewRequest(http.MethodPost, peer+distbuild.OfferPath, bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := offerClient.Do(req)
			if err != nil {
				s.tracker.Counter("dist_offer_errors").Add(1)
				s.dist.health.MarkDown(peer)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				s.tracker.Counter("dist_offer_errors").Add(1)
				return
			}
			s.tracker.Counter("dist_offers_sent").Add(1)
		}(peer)
	}
}
