package distbuild

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
)

// Default tuning, used when BuildConfig leaves the fields zero.
const (
	// DefaultLease is how long a claimed range stays reserved before the
	// pool steals it back: long enough for a worker to enumerate and ship
	// a healthy batch, short enough that a SIGKILLed worker only stalls
	// the tail of a build briefly.
	DefaultLease = 10 * time.Second
	// DefaultMaxClaim caps shards per lease. At the one-round chunk size
	// (128 facets/shard) this is a few thousand facets per round trip —
	// big enough to amortize HTTP, small enough to lose little to a death.
	DefaultMaxClaim = 32
)

// maxClaimBody bounds a claim request body.
const maxClaimBody = 4 << 10

// errLeaseGone rejects a completion whose lease expired (stolen) or
// whose build finished; the worker re-claims and moves on.
var errLeaseGone = errors.New("distbuild: lease expired or build gone")

// Coordinator hosts the claimable work queues of this replica's active
// distributed builds and serves their claim/complete endpoints. One
// Coordinator serves any number of concurrent builds, each registered
// for the duration of its Run call.
type Coordinator struct {
	tracker *obs.Tracker
	now     func() time.Time // test seam; time.Now outside tests

	mu     sync.Mutex
	builds map[string]*build
}

// NewCoordinator builds a Coordinator reporting on tr (nil: a fresh
// tracker).
func NewCoordinator(tr *obs.Tracker) *Coordinator {
	if tr == nil {
		tr = obs.NewTracker()
	}
	return &Coordinator{tracker: tr, now: time.Now, builds: make(map[string]*build)}
}

// BuildConfig shapes one coordinated build.
type BuildConfig struct {
	// Plan is the build's deterministic shard decomposition; remote
	// workers re-derive the identical plan from the offered model.
	Plan *roundop.ShardPlan
	// Ck, when set, persists every merged completion before it counts as
	// done — the job checkpoint seam. A coordinator killed mid-build
	// restores the flushed shards on its next Run and never re-leases
	// them.
	Ck roundop.Checkpointer
	// Lease is the claim deadline (0 = DefaultLease); MaxClaim caps
	// shards per lease (0 = DefaultMaxClaim).
	Lease    time.Duration
	MaxClaim int
	// LocalWorkers is how many in-process claim loops the coordinator
	// runs itself (0 means 1). The coordinator is normally a worker too:
	// its loops guarantee progress when every peer is dead, and their
	// claim polls are what expire abandoned leases. A negative value
	// disables local loops entirely — the build then progresses only
	// through remote claims, which is a test seam, not a serving mode.
	LocalWorkers int
	// LocalName identifies the coordinator's own loops in lease
	// bookkeeping (default "local"); OnStolen is never called for it.
	LocalName string
	// OnStolen, when set, is told each time a worker's lease expires —
	// the serving tier demotes that worker's health so offer fan-out
	// skips it until it probes back up.
	OnStolen func(worker string)
}

// Run coordinates one build to completion and returns the merged result.
// While Run is in flight the build is claimable under id via the
// Coordinator's HTTP handlers; local worker loops run regardless of
// whether any peer ever claims. On context cancellation the build is
// withdrawn (outstanding remote completions get 410) and ctx.Err()
// returned; flushed checkpoints survive for the next attempt.
func (c *Coordinator) Run(ctx context.Context, id string, cfg BuildConfig) (*pc.Result, error) {
	if cfg.Plan == nil {
		return nil, errors.New("distbuild: BuildConfig.Plan is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.MaxClaim <= 0 {
		cfg.MaxClaim = DefaultMaxClaim
	}
	switch {
	case cfg.LocalWorkers == 0:
		cfg.LocalWorkers = 1
	case cfg.LocalWorkers < 0:
		cfg.LocalWorkers = 0
	}
	if cfg.LocalName == "" {
		cfg.LocalName = "local"
	}
	tr := obs.FromContext(ctx)
	b := &build{
		id:       id,
		plan:     cfg.Plan,
		state:    make([]uint8, cfg.Plan.NumShards()),
		leases:   make(map[uint64]*lease),
		res:      pc.NewResult(),
		ck:       cfg.Ck,
		leaseDur: cfg.Lease,
		maxClaim: cfg.MaxClaim,
		onStolen: cfg.OnStolen,
		local:    cfg.LocalName,
		now:      c.now,
		doneCh:   make(chan struct{}),
		tr:       c.tracker,
		shardCtr: tr.Counter("shards_done"),
		facetCtr: tr.Counter("facets"),
	}
	tr.SetGoal("shards_done", uint64(cfg.Plan.NumShards()))
	if err := b.restore(); err != nil {
		return nil, err
	}
	restored := 0
	for _, st := range b.state {
		if st == shardDone {
			restored++
		}
	}
	if restored > 0 {
		b.shardCtr.Add(uint64(restored))
		tr.Counter("shards_restored").Add(uint64(restored))
	}
	b.doneCnt = restored
	if b.doneCnt == len(b.state) {
		return b.res, nil
	}

	if !c.register(b) {
		return nil, fmt.Errorf("distbuild: build %s is already running here", id)
	}
	defer c.unregister(b)
	c.tracker.Counter("dist_builds").Add(1)

	// The coordinator's own claim loops: the same protocol as a remote
	// worker, minus HTTP. Their periodic claim polls double as the lease
	// expiry sweep.
	var wg sync.WaitGroup
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	for w := 0; w < cfg.LocalWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.localLoop(workerCtx, c.tracker)
		}()
	}

	select {
	case <-ctx.Done():
		stopWorkers()
		wg.Wait()
		return nil, ctx.Err()
	case <-b.doneCh:
		stopWorkers()
		wg.Wait()
		b.mu.Lock()
		err := b.err
		res := b.res
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

func (c *Coordinator) register(b *build) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.builds[b.id]; dup {
		return false
	}
	c.builds[b.id] = b
	return true
}

func (c *Coordinator) unregister(b *build) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.builds[b.id] == b {
		delete(c.builds, b.id)
	}
}

func (c *Coordinator) lookup(id string) *build {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds[id]
}

// ClaimHandler serves POST ClaimPath: lease a contiguous shard index
// range. 404 for unknown builds tells workers to stop.
func (c *Coordinator) ClaimHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClaimBody))
		if err != nil {
			http.Error(w, "oversized claim", http.StatusRequestEntityTooLarge)
			return
		}
		var req claimRequest
		if err := json.Unmarshal(body, &req); err != nil || req.Build == "" {
			http.Error(w, "invalid claim request", http.StatusBadRequest)
			return
		}
		b := c.lookup(req.Build)
		if b == nil {
			http.Error(w, "unknown build", http.StatusNotFound)
			return
		}
		if req.Worker == "" {
			req.Worker = "anonymous"
		}
		resp := b.claim(req.Worker, req.Max)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	}
}

// CompleteHandler serves POST CompletePath: one framed shard delta. 204
// on merge, 410 when the lease was stolen or the build is gone (the
// worker re-claims), 400 on a frame that fails validation.
func (c *Coordinator) CompleteHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxCompleteBody))
		if err != nil {
			http.Error(w, "oversized completion", http.StatusRequestEntityTooLarge)
			return
		}
		delta, err := DecodeShardFrame(raw)
		if err != nil {
			c.tracker.Counter("dist_bad_completions").Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b := c.lookup(delta.Build)
		if b == nil {
			http.Error(w, "unknown build", http.StatusGone)
			return
		}
		c.tracker.Counter("dist_remote_deltas").Add(1)
		switch err := b.complete(delta.Lease, delta.Shards, delta.Result); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, errLeaseGone):
			http.Error(w, err.Error(), http.StatusGone)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}
}

// Shard lease states.
const (
	shardFree uint8 = iota
	shardLeased
	shardDone
)

// lease is one outstanding claim: worker, contiguous range, deadline.
type lease struct {
	id       uint64
	worker   string
	lo, hi   int
	deadline time.Time
}

// build is one coordinated construction's shared state. All transitions
// run under mu; checkpoint flushes and merges happen inside complete
// while holding it, which serializes them exactly as the single-process
// checkpoint collector does.
type build struct {
	id       string
	plan     *roundop.ShardPlan
	ck       roundop.Checkpointer
	leaseDur time.Duration
	maxClaim int
	onStolen func(string)
	local    string
	now      func() time.Time
	tr       *obs.Tracker
	shardCtr *obs.Counter
	facetCtr *obs.Counter

	mu        sync.Mutex
	res       *pc.Result
	state     []uint8
	leases    map[uint64]*lease
	nextLease uint64
	doneCnt   int
	err       error
	closed    bool
	doneCh    chan struct{}
}

// restore replays the checkpoint log into the done-set, so a resumed
// coordinator never re-leases a shard a previous attempt flushed, and
// adopts its partial result as the build's result.
func (b *build) restore() error {
	if b.ck == nil {
		return nil
	}
	done, partial, err := b.ck.Restore(len(b.state))
	if err != nil {
		return fmt.Errorf("distbuild: restore checkpoint: %w", err)
	}
	if done != nil && len(done) != len(b.state) {
		return fmt.Errorf("distbuild: checkpoint restored %d shards, plan has %d", len(done), len(b.state))
	}
	for i, d := range done {
		if d {
			b.state[i] = shardDone
		}
	}
	if partial != nil {
		b.res = partial // the checkpoint's chain continues into it
	}
	return nil
}

// claim leases the first contiguous free range, stealing expired leases
// back first. It answers done when every shard is done, wait when
// everything unfinished is currently leased out.
func (b *build) claim(worker string, max int) claimResponse {
	if max <= 0 || max > b.maxClaim {
		max = b.maxClaim
	}
	b.mu.Lock()
	stolen := b.reclaimExpiredLocked()
	var resp claimResponse
	switch {
	case b.closed:
		resp = claimResponse{Done: true}
	case b.doneCnt == len(b.state):
		resp = claimResponse{Done: true}
	default:
		lo := -1
		for i, st := range b.state {
			if st == shardFree {
				lo = i
				break
			}
		}
		if lo < 0 {
			resp = claimResponse{Wait: true}
		} else {
			hi := lo
			for hi < len(b.state) && b.state[hi] == shardFree && hi-lo < max {
				hi++
			}
			b.nextLease++
			l := &lease{id: b.nextLease, worker: worker, lo: lo, hi: hi, deadline: b.now().Add(b.leaseDur)}
			b.leases[l.id] = l
			for i := lo; i < hi; i++ {
				b.state[i] = shardLeased
			}
			b.tr.Counter("dist_leases_granted").Add(1)
			resp = claimResponse{Lease: l.id, Lo: lo, Hi: hi}
		}
	}
	b.mu.Unlock()
	// Health demotion runs outside the lock; it may take the health
	// registry's own locks.
	if b.onStolen != nil {
		for _, w := range stolen {
			if w != b.local {
				b.onStolen(w)
			}
		}
	}
	return resp
}

// reclaimExpiredLocked returns expired leases' ranges to the free pool
// and reports the workers they were stolen from.
func (b *build) reclaimExpiredLocked() []string {
	now := b.now()
	var stolen []string
	for id, l := range b.leases {
		if now.Before(l.deadline) {
			continue
		}
		for i := l.lo; i < l.hi; i++ {
			if b.state[i] == shardLeased {
				b.state[i] = shardFree
			}
		}
		delete(b.leases, id)
		b.tr.Counter("dist_leases_reclaimed").Add(1)
		stolen = append(stolen, l.worker)
	}
	return stolen
}

// complete merges one fulfilled lease into the build's result, hands the
// result to the checkpoint, and marks the shards done; the build finishes
// only after its last completion's Flush returned, so a flush error fails
// it before anything is served. A completion for a stolen or unknown
// lease is errLeaseGone — its shards are owned by someone else now and
// its delta is discarded.
func (b *build) complete(leaseID uint64, shards []int, delta *pc.Result) error {
	b.mu.Lock()
	var stolen []string
	defer func() {
		b.mu.Unlock()
		// Stolen-worker demotion runs outside the lock, same as in claim.
		if b.onStolen != nil {
			for _, w := range stolen {
				if w != b.local {
					b.onStolen(w)
				}
			}
		}
	}()
	if b.closed {
		return errLeaseGone
	}
	stolen = b.reclaimExpiredLocked() // a just-expired lease must not slip its delta in
	l, ok := b.leases[leaseID]
	if !ok {
		b.tr.Counter("dist_late_completions").Add(1)
		return errLeaseGone
	}
	if len(shards) != l.hi-l.lo {
		return fmt.Errorf("distbuild: completion covers %d shards, lease %d covers [%d,%d)", len(shards), leaseID, l.lo, l.hi)
	}
	for i, s := range shards {
		if s != l.lo+i {
			return fmt.Errorf("distbuild: completion shard %d outside lease range [%d,%d)", s, l.lo, l.hi)
		}
	}
	b.res.Merge(delta)
	if b.ck != nil {
		if err := b.ck.Flush(shards, b.res); err != nil {
			b.fail(fmt.Errorf("distbuild: flush checkpoint: %w", err))
			return b.err
		}
		b.tr.Counter("ckpt_flushes").Add(1)
	}
	var facets int64
	for _, s := range shards {
		b.state[s] = shardDone
		facets += b.plan.Facets(s)
	}
	b.doneCnt += len(shards)
	delete(b.leases, leaseID)
	b.shardCtr.Add(uint64(len(shards)))
	b.facetCtr.Add(uint64(facets))
	b.tr.Counter("dist_shards_done").Add(uint64(len(shards)))
	if b.doneCnt == len(b.state) {
		b.closed = true
		close(b.doneCh)
	}
	return nil
}

// fail aborts the build; callers hold b.mu.
func (b *build) fail(err error) {
	if b.closed {
		return
	}
	b.err = err
	b.closed = true
	close(b.doneCh)
}

// localLoop is the coordinator's in-process worker: the same
// claim/enumerate/complete cycle a remote worker runs, without the HTTP
// round trips (and without the encode/decode — the delta moves by
// pointer). Its wait-state polls are what expire dead workers' leases.
func (b *build) localLoop(ctx context.Context, tr *obs.Tracker) {
	for {
		if ctx.Err() != nil {
			return
		}
		resp := b.claim(b.local, 0)
		if resp.Done {
			return
		}
		if resp.Wait {
			select {
			case <-ctx.Done():
			case <-b.doneCh:
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		local := pc.NewResult()
		shards := make([]int, 0, resp.Hi-resp.Lo)
		runErr := error(nil)
		for i := resp.Lo; i < resp.Hi; i++ {
			if err := b.plan.RunShard(local, i); err != nil {
				runErr = err
				break
			}
			shards = append(shards, i)
		}
		if runErr != nil {
			b.mu.Lock()
			b.fail(runErr)
			b.mu.Unlock()
			return
		}
		tr.Counter("dist_worker_shards").Add(uint64(len(shards)))
		if err := b.complete(resp.Lease, shards, local); err != nil {
			if errors.Is(err, errLeaseGone) {
				continue // stolen under us (e.g. an absurdly short lease); re-claim
			}
			return
		}
	}
}
