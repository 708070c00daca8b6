package distbuild

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

func testInput(m int) topology.Simplex {
	vs := make(topology.Simplex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return vs
}

// testModel compiles a preset query into (instance, input, plan).
func testModel(t testing.TB, query string) (*modelspec.Instance, topology.Simplex, *roundop.ShardPlan) {
	t.Helper()
	v, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := modelspec.FromQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(inst.M)
	plan, err := roundop.PlanShards(inst.Operator(), input, inst.R)
	if err != nil {
		t.Fatal(err)
	}
	return inst, input, plan
}

// localHash builds the model single-process and returns the canonical
// hash the distributed path must reproduce.
func localHash(t *testing.T, inst *modelspec.Instance, input topology.Simplex) string {
	t.Helper()
	want, err := inst.Build(context.Background(), input, 4)
	if err != nil {
		t.Fatal(err)
	}
	return want.Complex.CanonicalHash()
}

// coordServer mounts a coordinator's claim/complete endpoints on a test
// server.
func coordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ClaimPath, c.ClaimHandler())
	mux.HandleFunc("POST "+CompletePath, c.CompleteHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// offer posts a BuildOffer directly to a pool's handler and returns the
// status code.
func offer(t *testing.T, pool *WorkerPool, o BuildOffer) int {
	t.Helper()
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, OfferPath, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	pool.OfferHandler()(rec, req)
	return rec.Code
}

// TestDistributedBuildMatchesLocal is the end-to-end differential: a
// coordinator plus an HTTP worker pool (claiming over real requests,
// shipping framed deltas back) must produce the byte-identical complex
// the single-process engine builds. Local worker loops are disabled so
// every one of the 32 shards provably crosses the wire.
func TestDistributedBuildMatchesLocal(t *testing.T) {
	inst, input, plan := testModel(t, "model=async&n=3&f=3&r=1")
	want := localHash(t, inst, input)

	coord := NewCoordinator(obs.NewTracker())
	ts := coordServer(t, coord)
	pool := &WorkerPool{
		Self: "worker-1",
		Compile: func(o *BuildOffer) (*roundop.ShardPlan, error) {
			spec, err := modelspec.Parse(o.Model)
			if err != nil {
				return nil, err
			}
			in, err := spec.Compile()
			if err != nil {
				return nil, err
			}
			wi, err := o.InputSimplex()
			if err != nil {
				return nil, err
			}
			return roundop.PlanShards(in.Operator(), wi, in.R)
		},
		Workers:  4,
		MaxClaim: 1,
		Tracker:  obs.NewTracker(),
	}
	defer pool.Close()
	if code := offer(t, pool, BuildOffer{
		Build:       "b1",
		Coordinator: ts.URL,
		Model:       inst.SpecDoc(),
		Input:       wireVerts(input),
	}); code != http.StatusAccepted {
		t.Fatalf("offer: status %d, want 202", code)
	}

	res, err := coord.Run(context.Background(), "b1", BuildConfig{
		Plan:         plan,
		MaxClaim:     1,
		LocalWorkers: -1, // remote-only: every shard must arrive over HTTP
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("distributed hash %s != local hash %s", got, want)
	}
	// With local loops disabled, every merged shard necessarily crossed
	// the wire. Assert on the coordinator's counters: they are settled the
	// moment Run returns (the pool's own counters race the final response
	// delivery against Close's cancellation).
	cs := coord.tracker.Counters()
	if got := cs["dist_remote_deltas"]; got < uint64(plan.NumShards()) {
		t.Fatalf("coordinator saw %d remote deltas, want >= %d (MaxClaim 1)", got, plan.NumShards())
	}
	if got := cs["dist_shards_done"]; got != uint64(plan.NumShards()) {
		t.Fatalf("dist_shards_done = %d, want %d", got, plan.NumShards())
	}
}

func wireVerts(input topology.Simplex) []WireVert {
	out := make([]WireVert, len(input))
	for i, v := range input {
		out[i] = WireVert{P: v.P, L: v.Label}
	}
	return out
}

// TestLeaseExpiryStealsRange drives the lease state machine on a fake
// clock: a claimed range whose deadline passes must return to the pool,
// be counted as reclaimed, report its worker as stolen-from, and reject
// the original lease's late completion with errLeaseGone.
func TestLeaseExpiryStealsRange(t *testing.T) {
	_, _, plan := testModel(t, "model=async&n=3&f=3&r=1")
	now := time.Unix(1000, 0)
	var stolen []string
	tr := obs.NewTracker()
	b := &build{
		plan:     plan,
		state:    make([]uint8, plan.NumShards()),
		leases:   make(map[uint64]*lease),
		res:      pc.NewResult(),
		leaseDur: time.Second,
		maxClaim: 2,
		onStolen: func(w string) { stolen = append(stolen, w) },
		local:    "local",
		now:      func() time.Time { return now },
		tr:       tr,
		shardCtr: tr.Counter("shards_done"),
		facetCtr: tr.Counter("facets"),
		doneCh:   make(chan struct{}),
	}

	first := b.claim("victim", 2)
	if first.Done || first.Wait || first.Lo != 0 || first.Hi != 2 {
		t.Fatalf("first claim = %+v, want lease over [0,2)", first)
	}
	// Within the lease the range must NOT be re-leased.
	second := b.claim("thief", 2)
	if second.Lo == first.Lo && second.Hi == first.Hi {
		t.Fatalf("second claim got the same live range %+v", second)
	}

	now = now.Add(2 * time.Second) // victim's (and thief's) leases expire
	reclaimed := b.claim("heir", 2)
	if reclaimed.Lo != 0 || reclaimed.Hi != 2 {
		t.Fatalf("post-expiry claim = %+v, want the stolen range [0,2)", reclaimed)
	}
	if got := tr.Counters()["dist_leases_reclaimed"]; got != 2 {
		t.Fatalf("dist_leases_reclaimed = %d, want 2 (victim and thief)", got)
	}
	if len(stolen) != 2 {
		t.Fatalf("onStolen saw %v, want both victim and thief", stolen)
	}

	// The victim finishing late must be turned away: its range belongs to
	// the heir now, and double-merging (while harmless for the set) would
	// double-count progress.
	shard := pc.NewResult()
	for i := first.Lo; i < first.Hi; i++ {
		if err := plan.RunShard(shard, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.complete(first.Lease, []int{0, 1}, shard); err != errLeaseGone {
		t.Fatalf("late complete err = %v, want errLeaseGone", err)
	}
	// The heir's completion lands.
	if err := b.complete(reclaimed.Lease, []int{0, 1}, shard); err != nil {
		t.Fatalf("heir complete: %v", err)
	}
	if b.doneCnt != 2 {
		t.Fatalf("doneCnt = %d, want 2", b.doneCnt)
	}
}

// TestCompleteValidatesLeaseRange: a completion must cover exactly its
// lease's contiguous range — short, long, or shifted deltas are protocol
// errors, not partial credit.
func TestCompleteValidatesLeaseRange(t *testing.T) {
	_, _, plan := testModel(t, "model=async&n=3&f=3&r=1")
	tr := obs.NewTracker()
	b := &build{
		plan:     plan,
		state:    make([]uint8, plan.NumShards()),
		leases:   make(map[uint64]*lease),
		res:      pc.NewResult(),
		leaseDur: time.Minute,
		maxClaim: 2,
		local:    "local",
		now:      time.Now,
		tr:       tr,
		shardCtr: tr.Counter("shards_done"),
		facetCtr: tr.Counter("facets"),
		doneCh:   make(chan struct{}),
	}
	resp := b.claim("w", 2)
	for _, bad := range [][]int{{0}, {0, 1, 2}, {1, 2}} {
		if err := b.complete(resp.Lease, bad, pc.NewResult()); err == nil || err == errLeaseGone {
			t.Fatalf("complete with shards %v: err = %v, want a range violation", bad, err)
		}
		// The build must not be failed by a bad completion attempt: the
		// lease survives for the worker to retry correctly.
		if b.closed {
			t.Fatalf("build closed after bad completion %v", bad)
		}
	}
}

// TestRunStealsFromKilledWorker is the crash-tolerance contract, live: a
// zombie worker claims a range over HTTP and dies without completing it;
// the surviving pool must steal the expired lease and still finish with
// the exact local hash. Sequencing is deterministic — the zombie is the
// only claimant until it holds its lease, and only then does the healthy
// pool start. Runs under -race in CI.
func TestRunStealsFromKilledWorker(t *testing.T) {
	inst, input, plan := testModel(t, "model=async&n=3&f=3&r=1")
	want := localHash(t, inst, input)

	tr := obs.NewTracker()
	coord := NewCoordinator(tr)
	ts := coordServer(t, coord)

	var stolenMu sync.Mutex
	stolen := map[string]int{}

	runErr := make(chan error, 1)
	var res *pc.Result
	go func() {
		var err error
		res, err = coord.Run(context.Background(), "b-kill", BuildConfig{
			Plan:         plan,
			Lease:        300 * time.Millisecond,
			MaxClaim:     2,
			LocalWorkers: -1, // only the zombie and the pool work this build
			OnStolen: func(w string) {
				stolenMu.Lock()
				stolen[w]++
				stolenMu.Unlock()
			},
		})
		runErr <- err
	}()

	// The zombie: claim until granted a lease, then die holding it.
	// Claims before Run registers the build answer 404; keep trying.
	var zombieLease claimResponse
	for deadline := time.Now().Add(10 * time.Second); zombieLease.Lease == 0; {
		if time.Now().After(deadline) {
			t.Fatal("zombie never got a lease")
		}
		body, _ := json.Marshal(claimRequest{Build: "b-kill", Worker: "zombie", Max: 2})
		resp, err := http.Post(ts.URL+ClaimPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var cr claimResponse
		ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&cr) == nil
		resp.Body.Close()
		if ok && cr.Lease != 0 {
			zombieLease = cr
		}
		if !ok {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Only now does the healthy pool join: it must finish the free shards
	// and then steal the zombie's expired range.
	pool := &WorkerPool{
		Self:     "survivor",
		Compile:  func(o *BuildOffer) (*roundop.ShardPlan, error) { return plan, nil },
		Workers:  2,
		MaxClaim: 2,
		Tracker:  obs.NewTracker(),
	}
	defer pool.Close()
	if code := offer(t, pool, BuildOffer{Build: "b-kill", Coordinator: ts.URL, Model: inst.SpecDoc()}); code != http.StatusAccepted {
		t.Fatalf("offer: status %d, want 202", code)
	}

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("hash after steal %s != local %s", got, want)
	}
	if got := tr.Counters()["dist_leases_reclaimed"]; got < 1 {
		t.Fatalf("dist_leases_reclaimed = %d, want >= 1", got)
	}
	stolenMu.Lock()
	z := stolen["zombie"]
	stolenMu.Unlock()
	if z < 1 {
		t.Fatalf("OnStolen never reported the zombie (saw %v)", stolen)
	}
	// With no local loops and the zombie completing nothing, every merged
	// shard — the stolen range included — was re-enumerated by the
	// survivor pool and arrived as a remote delta.
	if got := tr.Counters()["dist_shards_done"]; got != uint64(plan.NumShards()) {
		t.Fatalf("dist_shards_done = %d, want %d", got, plan.NumShards())
	}
}

// memCkpt is an in-memory Checkpointer: done shards and the merged
// partial survive "restarts" (new Run calls against the same struct).
type memCkpt struct {
	mu      sync.Mutex
	total   int
	done    map[int]bool
	partial *pc.Result
	flushes int
}

func (m *memCkpt) Restore(totalShards int) ([]bool, *pc.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = totalShards
	if len(m.done) == 0 {
		return nil, nil, nil
	}
	done := make([]bool, totalShards)
	for i := range m.done {
		done[i] = true
	}
	res := pc.NewResult()
	if m.partial != nil {
		res.Merge(m.partial)
	}
	return done, res, nil
}

func (m *memCkpt) Flush(done []int, delta *pc.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done == nil {
		m.done = make(map[int]bool)
	}
	for _, i := range done {
		m.done[i] = true
	}
	if m.partial == nil {
		m.partial = pc.NewResult()
	}
	m.partial.Merge(delta)
	m.flushes++
	return nil
}

// TestRunResumesFromCheckpoint: a coordinator restarted over a
// checkpoint that already holds half the shards must restore them
// (never re-leasing finished ranges) and still produce the exact hash.
func TestRunResumesFromCheckpoint(t *testing.T) {
	inst, input, plan := testModel(t, "model=async&n=3&f=3&r=1")
	want := localHash(t, inst, input)

	// Pre-fill the checkpoint as a dead previous attempt would have: the
	// first half of the shards, flushed.
	ck := &memCkpt{}
	pre := pc.NewResult()
	preDone := make([]int, 0, plan.NumShards()/2)
	for i := 0; i < plan.NumShards()/2; i++ {
		if err := plan.RunShard(pre, i); err != nil {
			t.Fatal(err)
		}
		preDone = append(preDone, i)
	}
	if err := ck.Flush(preDone, pre); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracker()
	coord := NewCoordinator(tr)
	// Job-progress counters (shards_done, shards_restored) report through
	// the context tracker, the way the serving tier scopes them per job.
	ctx := obs.WithTracker(context.Background(), tr)
	res, err := coord.Run(ctx, "b-resume", BuildConfig{Plan: plan, Ck: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("resumed hash %s != local %s", got, want)
	}
	if got := tr.Counters()["shards_restored"]; got != uint64(len(preDone)) {
		t.Fatalf("shards_restored = %d, want %d", got, len(preDone))
	}
	// Every shard the restore skipped must never have been flushed again.
	ck.mu.Lock()
	doneCount, flushes := len(ck.done), ck.flushes
	ck.mu.Unlock()
	if doneCount != plan.NumShards() {
		t.Fatalf("checkpoint holds %d done shards, want %d", doneCount, plan.NumShards())
	}
	if flushes < 2 {
		t.Fatalf("flushes = %d, want the pre-fill plus at least one live flush", flushes)
	}
}

// TestRunFullyRestoredSkipsWork: a checkpoint that already covers every
// shard short-circuits Run entirely.
func TestRunFullyRestoredSkipsWork(t *testing.T) {
	inst, input, plan := testModel(t, "model=iis&n=2&r=1")
	want := localHash(t, inst, input)
	ck := &memCkpt{}
	full := pc.NewResult()
	all := make([]int, plan.NumShards())
	for i := range all {
		if err := plan.RunShard(full, i); err != nil {
			t.Fatal(err)
		}
		all[i] = i
	}
	if err := ck.Flush(all, full); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(obs.NewTracker())
	res, err := coord.Run(context.Background(), "b-full", BuildConfig{Plan: plan, Ck: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("restored hash %s != local %s", got, want)
	}
}

// TestHandlersRejectProtocolErrors pins the endpoint status mapping the
// worker loop keys off: unknown build 404 on claim (stop) and 410 on
// complete (drop), corrupt frame 400, expired lease 410.
func TestHandlersRejectProtocolErrors(t *testing.T) {
	coord := NewCoordinator(obs.NewTracker())
	ts := coordServer(t, coord)

	body, _ := json.Marshal(claimRequest{Build: "nope", Worker: "w"})
	resp, err := http.Post(ts.URL+ClaimPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("claim for unknown build: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+ClaimPath, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed claim: status %d, want 400", resp.StatusCode)
	}

	frame := EncodeShardDelta("nope", 1, []int{0}, pc.NewResult())
	resp, err = http.Post(ts.URL+CompletePath, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("complete for unknown build: status %d, want 410", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+CompletePath, "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: status %d, want 400", resp.StatusCode)
	}

	// A well-framed completion for a live lease whose delta is not
	// face-closed (an edge without its vertices) is a 400 as well. It
	// merges nothing and leaves the lease alone: once the lease expires
	// its range is reclaimed like any abandoned one.
	_, _, plan := testModel(t, "model=async&n=3&f=3&r=1")
	now := time.Unix(1000, 0)
	b := &build{
		id:       "live",
		plan:     plan,
		state:    make([]uint8, plan.NumShards()),
		leases:   make(map[uint64]*lease),
		res:      pc.NewResult(),
		leaseDur: time.Second,
		maxClaim: 2,
		local:    "local",
		now:      func() time.Time { return now },
		tr:       coord.tracker,
		shardCtr: coord.tracker.Counter("shards_done"),
		facetCtr: coord.tracker.Counter("facets"),
		doneCh:   make(chan struct{}),
	}
	if !coord.register(b) {
		t.Fatal("register live build")
	}
	l := b.claim("w", 2)
	payload, err := json.Marshal(legacyDelta{
		Build: "live", Lease: l.Lease, Shards: []int{l.Lo, l.Lo + 1},
		Verts: []pc.DeltaVert{{P: 0, L: views.Initial(0, "a").Encode()}, {P: 1, L: views.Initial(1, "b").Encode()}},
		Simps: [][]int32{{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same delta in a record-codec frame: the header, then a record of
	// two shards, two new vertices and one row, the edge.
	rec := []byte{tagFrame, 4}
	rec = append(rec, "live"...)
	rec = binary.AppendUvarint(rec, l.Lease)
	rec = append(rec, 2, byte(l.Lo), byte(l.Lo+1), 0, 0, 2)
	for _, v := range []*views.View{views.Initial(0, "a"), views.Initial(1, "b")} {
		rec = append(rec, byte(v.P), byte(len(v.Encode())))
		rec = append(rec, v.Encode()...)
	}
	rec = append(rec, 1, 2, 0, 1)
	if _, err := DecodeShardFrame(store.EncodeFrame(rec)); err == nil || !strings.Contains(err.Error(), "face-closed") {
		t.Fatalf("record frame of a lone edge: %v, want a face-closure error", err)
	}
	for _, frame := range [][]byte{store.EncodeFrame(payload), store.EncodeFrame(rec)} {
		resp, err = http.Post(ts.URL+CompletePath, "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delta that is not face-closed: status %d, want 400", resp.StatusCode)
		}
	}
	if b.closed || b.doneCnt != 0 || !b.res.Complex.IsEmpty() {
		t.Fatalf("bad delta changed the build: closed %v, done %d, size %d", b.closed, b.doneCnt, b.res.Complex.Size())
	}
	now = now.Add(2 * time.Second)
	if again := b.claim("heir", 2); again.Lo != l.Lo || again.Hi != l.Hi {
		t.Fatalf("claim after expiry = %+v, want the range [%d,%d) back", again, l.Lo, l.Hi)
	}
}

// TestOfferHandlerValidates: offers that fail compilation are 400, and a
// duplicate offer for an active build is accepted idempotently without a
// second compile.
func TestOfferHandlerValidates(t *testing.T) {
	compiles := 0
	pool := &WorkerPool{
		Self: "w",
		Compile: func(o *BuildOffer) (*roundop.ShardPlan, error) {
			compiles++
			_, _, plan := testModel(t, "model=iis&n=2&r=1")
			return plan, nil
		},
		Workers: 1,
		Tracker: obs.NewTracker(),
	}
	defer pool.Close()

	if code := offer(t, pool, BuildOffer{Coordinator: "http://x"}); code != http.StatusBadRequest {
		t.Fatalf("offer with no build id: status %d, want 400", code)
	}
	bad := &WorkerPool{
		Self:    "w2",
		Compile: func(o *BuildOffer) (*roundop.ShardPlan, error) { return nil, errLeaseGone },
		Tracker: obs.NewTracker(),
	}
	defer bad.Close()
	if code := offer(t, bad, BuildOffer{Build: "b", Coordinator: "http://x"}); code != http.StatusBadRequest {
		t.Fatalf("offer failing compile: status %d, want 400", code)
	}

	// An accepted build's claim loops run against an unreachable
	// coordinator and stop on their own; the duplicate offer must not
	// recompile while the build is active.
	if code := offer(t, pool, BuildOffer{Build: "b", Coordinator: "http://127.0.0.1:0"}); code != http.StatusAccepted {
		t.Fatalf("offer: status %d, want 202", code)
	}
	first := compiles
	if code := offer(t, pool, BuildOffer{Build: "b", Coordinator: "http://127.0.0.1:0"}); code != http.StatusAccepted {
		t.Fatalf("duplicate offer: status %d, want 202", code)
	}
	if compiles > first {
		// The dup may race the first build's claim-loop exit; both compile
		// counts are acceptable then, but with the loops still starting the
		// dup must be deduplicated. Allow either only if the build already
		// drained.
		t.Logf("duplicate offer recompiled (build likely drained first); compiles=%d", compiles)
	}
}

// TestEncodeDecodeShardDelta round-trips a real shard through the wire
// frame of the record codec: vertices, simplices, lease metadata, and the
// full face-closed simplex set.
func TestEncodeDecodeShardDelta(t *testing.T) {
	_, _, plan := testModel(t, "model=async&n=3&f=2&r=1")
	shard := pc.NewResult()
	if err := plan.RunShard(shard, 0); err != nil {
		t.Fatal(err)
	}
	frame := EncodeShardDelta("b", 7, []int{0}, shard)
	if payload, ok := store.DecodeFrame(frame); !ok || payload[0] != tagFrame {
		t.Fatal("EncodeShardDelta wrote no tagged record frame")
	}
	delta, err := DecodeShardFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Build != "b" || delta.Lease != 7 || len(delta.Shards) != 1 || delta.Shards[0] != 0 {
		t.Fatalf("decoded metadata = %+v", delta)
	}
	if g, w := delta.Result.Complex.CanonicalHash(), shard.Complex.CanonicalHash(); g != w {
		t.Fatalf("decoded hash %s != encoded %s", g, w)
	}
	if len(delta.Result.Views) != len(shard.Views) {
		t.Fatalf("decoded views %d != encoded %d", len(delta.Result.Views), len(shard.Views))
	}

	// Flipping any byte of the frame must fail the checksum whole.
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := DecodeShardFrame(corrupt); err == nil {
		t.Fatal("corrupted frame decoded successfully")
	}
}

// goldenIISHash is the CanonicalHash of IIS n=2 r=2 over inputs a, b, c:
// the complex testdata/iis-n2-r2-sorted.frame carries.
const goldenIISHash = "20c6cc88cbf55b69d1cc8651267f440b17972aeb67d12e085ff9fda4262daa8c"

// TestDecodeSortedEncoderFrame: a completion frame written by the encoder
// pc's delta codec replaced — vertex table in (process, label) order, rows
// in (dimension, key) order — still decodes, to the pinned complex.
// Frames from a replica running that encoder stay mergeable during a
// rolling upgrade.
func TestDecodeSortedEncoderFrame(t *testing.T) {
	raw, err := os.ReadFile("testdata/iis-n2-r2-sorted.frame")
	if err != nil {
		t.Fatal(err)
	}
	delta, err := DecodeShardFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Build != "golden" || delta.Lease != 7 || len(delta.Shards) != 13 {
		t.Fatalf("decoded metadata = %+v", delta)
	}
	if got := delta.Result.Complex.CanonicalHash(); got != goldenIISHash {
		t.Fatalf("golden frame decodes to %s, want %s", got, goldenIISHash)
	}
	inst, input, _ := testModel(t, "model=iis&n=2&r=2")
	if got := localHash(t, inst, input); got != goldenIISHash {
		t.Fatalf("IIS n=2 r=2 builds to %s, golden pin %s", got, goldenIISHash)
	}
	// The current encoder's frame of the decoded delta round-trips too.
	again, err := DecodeShardFrame(EncodeShardDelta("b", 1, delta.Shards, delta.Result))
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Result.Complex.CanonicalHash(); got != goldenIISHash {
		t.Fatalf("re-encoded frame decodes to %s, want %s", got, goldenIISHash)
	}
}

// TestDistributedFacetsCounter: a distributed build's "facets" counter
// counts final-round facet insertions, as a local Build's does, so both
// end at EstimateFacets, also for r > 1, where a shard is a whole
// first-round subtree and its first-round option count undercounts it.
func TestDistributedFacetsCounter(t *testing.T) {
	for _, q := range []string{"model=iis&n=2&r=2", "model=sync&n=2&k=1&r=2", "model=async&n=3&f=3&r=1"} {
		inst, input, plan := testModel(t, q)
		want, err := roundop.EstimateFacets(inst.Operator(), input, inst.R)
		if err != nil {
			t.Fatal(err)
		}
		local := obs.NewTracker()
		if _, err := inst.Build(obs.WithTracker(context.Background(), local), input, 1); err != nil {
			t.Fatal(err)
		}
		dist := obs.NewTracker()
		if _, err := NewCoordinator(obs.NewTracker()).Run(obs.WithTracker(context.Background(), dist), "b-"+q, BuildConfig{Plan: plan}); err != nil {
			t.Fatal(err)
		}
		if l, d := local.Counters()["facets"], dist.Counters()["facets"]; l != uint64(want) || d != uint64(want) {
			t.Fatalf("%s: facets counter local %d, distributed %d, want %d insertions", q, l, d, want)
		}
	}
}

// checkSound fails unless res is a face-closed chromatic complex whose
// every vertex has a view, its label being that view's canonical encoding.
func checkSound(t *testing.T, res *pc.Result) {
	t.Helper()
	c := res.Complex
	var faces []int32
	for ei := int32(0); ei < int32(c.EntryCount()); ei++ {
		if faces = c.EntryFaces(ei, faces[:0]); slices.Contains(faces, -1) {
			t.Fatalf("entry %v lacks a face", c.EntrySimplex(ei))
		}
		s := c.EntrySimplex(ei)
		for i := 1; i < len(s); i++ {
			if s[i-1].P >= s[i].P {
				t.Fatalf("entry %v is not chromatic", s)
			}
		}
	}
	for id := int32(0); id < int32(c.VertexCount()); id++ {
		v := c.VertexAt(id)
		view, ok := res.Views[v]
		if _, err := views.Decode(v.Label); err != nil || !ok || view.P != v.P || view.Encode() != v.Label {
			t.Fatalf("vertex %v has no canonical view", v)
		}
	}
}

// TestDecodeTailFrame: the committed frame of the whole IIS n=2 r=2 build,
// as the record codec writes it, decodes to the pinned complex, so the
// next codec change must keep reading it.
func TestDecodeTailFrame(t *testing.T) {
	raw, err := os.ReadFile("testdata/iis-n2-r2-tail.frame")
	if err != nil {
		t.Fatal(err)
	}
	if payload, ok := store.DecodeFrame(raw); !ok || payload[0] != tagFrame {
		t.Fatal("fixture is not a tagged completion frame")
	}
	delta, err := DecodeShardFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Build != "golden" || delta.Lease != 7 || len(delta.Shards) != 13 {
		t.Fatalf("decoded metadata = %+v", delta)
	}
	if got := delta.Result.Complex.CanonicalHash(); got != goldenIISHash {
		t.Fatalf("golden tail frame decodes to %s, want %s", got, goldenIISHash)
	}
	checkSound(t, delta.Result)
}
