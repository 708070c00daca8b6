package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pseudosphere/internal/distbuild"
	"pseudosphere/internal/obs"
)

// Pinned single-process canonical hashes (computed by the local engine;
// the distributed path must reproduce them byte for byte).
const (
	hashAsyncN3F3R1 = "30e2a2d27fb013a57b2ff755eb022802c54e16fa4152bffe87c4466131b68eab"
	hashAsyncN4F4R1 = "221039fdc9cc34570fcc0b1a2af4b84552bbc37e7fe2be75c48da1fa679bf4a4"
)

// distGet sends a hop-pinned GET: the hop header forces the receiving
// replica to compute locally, which makes it the build's coordinator.
func distGet(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hopHeader, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", path, raw, err)
	}
	return resp.StatusCode, body
}

func hashOf(t *testing.T, body map[string]any) (string, float64) {
	t.Helper()
	complexObj, ok := body["complex"].(map[string]any)
	if !ok {
		t.Fatalf("response has no complex: %v", body)
	}
	hash, _ := complexObj["canonical_hash"].(string)
	facets, _ := complexObj["facets"].(float64)
	return hash, facets
}

// TestFleetDistributedBuild: a build over the distribution threshold,
// coordinated by the replica the request lands on, produces the exact
// canonical hash of the single-process engine. Peers are offered the
// build; whether they win any leases is timing, but the result is not.
func TestFleetDistributedBuild(t *testing.T) {
	_, servers, tss := newFleet(t, 3, func(i int, cfg *Config) {
		cfg.DistThreshold = 1000
		cfg.DistLease = 2 * time.Second
	})

	code, body := distGet(t, tss[0], "/v1/rounds?model=async&n=3&f=3&r=1")
	if code != 200 {
		t.Fatalf("distributed rounds: status %d: %v", code, body)
	}
	hash, facets := hashOf(t, body)
	if hash != hashAsyncN3F3R1 {
		t.Fatalf("distributed hash %s != pinned single-process hash %s", hash, hashAsyncN3F3R1)
	}
	if facets != 4096 {
		t.Fatalf("facets = %v, want 4096", facets)
	}
	if got := servers[0].tracker.Counters()["dist_builds_coordinated"]; got != 1 {
		t.Fatalf("dist_builds_coordinated on the landing replica = %d, want 1", got)
	}
	// The other replicas never coordinated anything.
	for i := 1; i < 3; i++ {
		if got := servers[i].tracker.Counters()["dist_builds_coordinated"]; got != 0 {
			t.Fatalf("replica %d coordinated %d builds for a request it never saw", i, got)
		}
	}
}

// TestFleetDistributedBuildA1 is the acceptance pin: the full A^1
// one-round complex for n=4, f=4 (async&n=4&f=4&r=1; 1048576 facets)
// built across a 3-replica in-process fleet matches the single-process
// CanonicalHash exactly, with remote workers demonstrably merging
// deltas. Skipped under -short — it is a real million-facet build.
func TestFleetDistributedBuildA1(t *testing.T) {
	if testing.Short() {
		t.Skip("million-facet distributed build; skipped under -short")
	}
	_, servers, tss := newFleet(t, 3, func(i int, cfg *Config) {
		cfg.DistThreshold = 500_000
		cfg.DistLease = 5 * time.Second
		cfg.RequestTimeout = 5 * time.Minute
	})

	code, body := distGet(t, tss[0], "/v1/rounds?model=async&n=4&f=4&r=1")
	if code != 200 {
		t.Fatalf("distributed A^1 build: status %d: %v", code, body)
	}
	hash, facets := hashOf(t, body)
	if hash != hashAsyncN4F4R1 {
		t.Fatalf("distributed hash %s != pinned single-process hash %s", hash, hashAsyncN4F4R1)
	}
	if facets != 1048576 {
		t.Fatalf("facets = %v, want 1048576", facets)
	}
	cs := servers[0].tracker.Counters()
	if cs["dist_builds_coordinated"] != 1 {
		t.Fatalf("dist_builds_coordinated = %d, want 1", cs["dist_builds_coordinated"])
	}
	// An 8192-shard build over multiple seconds: the two worker replicas
	// had every opportunity to claim, and at least one delta must have
	// crossed the wire for the test to witness actual distribution.
	if cs["dist_remote_deltas"] == 0 {
		t.Fatal("no remote delta ever arrived; the fleet never actually distributed")
	}
	workers := 0
	for i := 1; i < 3; i++ {
		if servers[i].tracker.Counters()["dist_worker_shards"] > 0 {
			workers++
		}
	}
	if workers == 0 {
		t.Fatal("no peer replica completed any shard")
	}
}

// TestDistBelowThresholdStaysLocal: the threshold is a floor, not a
// hint — an estimate under it never leaves the replica.
func TestDistBelowThresholdStaysLocal(t *testing.T) {
	_, servers, tss := newFleet(t, 2, func(i int, cfg *Config) {
		cfg.DistThreshold = 1 << 40
	})
	code, body := distGet(t, tss[0], "/v1/rounds?model=async&n=3&f=3&r=1")
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if hash, _ := hashOf(t, body); hash != hashAsyncN3F3R1 {
		t.Fatalf("local-path hash %s != pinned %s", hash, hashAsyncN3F3R1)
	}
	for i, s := range servers {
		if got := s.tracker.Counters()["dist_builds_coordinated"]; got != 0 {
			t.Fatalf("replica %d coordinated %d builds below the threshold", i, got)
		}
	}
}

// TestDistWithoutPeersFallsThrough: a single-replica "fleet" has nobody
// to offer work to; qualifying builds fall through to the local engine
// (counted) instead of stalling on an empty worker pool.
func TestDistWithoutPeersFallsThrough(t *testing.T) {
	_, servers, tss := newFleet(t, 1, func(i int, cfg *Config) {
		cfg.DistThreshold = 1000
	})
	code, body := distGet(t, tss[0], "/v1/rounds?model=async&n=3&f=3&r=1")
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if hash, _ := hashOf(t, body); hash != hashAsyncN3F3R1 {
		t.Fatalf("fallback hash %s != pinned %s", hash, hashAsyncN3F3R1)
	}
	cs := servers[0].tracker.Counters()
	if cs["dist_builds_coordinated"] != 0 {
		t.Fatalf("dist_builds_coordinated = %d with no peers", cs["dist_builds_coordinated"])
	}
	if cs["dist_no_peers"] == 0 {
		t.Fatal("peerless fall-through not counted under dist_no_peers")
	}
}

// TestRouterRelays429RetryAfter: when the owning replica sheds load, the
// router must relay the owner's authoritative Retry-After untouched —
// a 429 stripped of its back-off hint teaches clients to hammer.
func TestRouterRelays429RetryAfter(t *testing.T) {
	urls, servers, tss := newFleet(t, 1, func(i int, cfg *Config) {
		cfg.Pool = 1
		cfg.Queue = -1
	})
	router, err := NewRouter(RouterConfig{Replicas: urls, VNodes: 8, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	// Occupy the single pool slot with a long build, sent straight to the
	// replica. Wait for the facet counter to move: the blocker holds the
	// slot.
	tracker := servers[0].tracker
	facets0 := tracker.Counters()["facets"]
	blockCtx, stopBlocker := context.WithCancel(context.Background())
	defer stopBlocker() // the serve spine cancels the compute with the client
	go func() {
		req, err := http.NewRequestWithContext(blockCtx, http.MethodGet,
			tss[0].URL+"/v1/rounds?model=async&n=4&f=4&r=1", nil)
		if err != nil {
			return
		}
		resp, err := tss[0].Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for tracker.Counters()["facets"] == facets0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started computing")
		}
		time.Sleep(time.Millisecond)
	}

	// A different compute through the router: the owner answers 429 with
	// its Retry-After, and the router's relay must carry both through.
	resp, err := rts.Client().Get(rts.URL + "/v1/rounds?model=sync&n=3&k=1&r=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated owner via router: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("router relayed the 429 without the owner's Retry-After")
	}
}

// TestHopGuardDeadOwner: the one-hop guard holds even when the key's
// owner is dead — a hop-pinned request is computed where it lands, never
// re-delegated toward the corpse, so the router's failover reroute can
// always be answered by any live replica.
func TestHopGuardDeadOwner(t *testing.T) {
	_, servers, tss := newFleet(t, 2, nil)
	tss[1].Close()
	servers[1].Close()

	paths := []string{
		"/v1/pseudosphere?n=1&values=0,1&betti=false",
		"/v1/connectivity?model=async&n=2&f=1&r=1",
		"/v1/rounds?model=iis&n=2&r=1",
	}
	for _, path := range paths {
		code, body := distGet(t, tss[0], path)
		if code != 200 {
			t.Fatalf("hop-pinned %s with dead peer: status %d: %v", path, code, body)
		}
	}
	if got := servers[0].tracker.Counters()["cluster_delegated"]; got != 0 {
		t.Fatalf("survivor delegated %d hop-pinned requests toward a dead owner", got)
	}
}

// TestOfferRefusesForeignInput: a worker answers 400 to an offered input
// that is not a face of the offered model's process simplex, or whose
// label no view can carry. The model's count covers only its own
// processes, and views.HeardSets at most 64 of them; before the check,
// a sync n=2 offer over processes 0..5 was accepted and planned into 7
// shards.
func TestOfferRefusesForeignInput(t *testing.T) {
	s := newTestServer(t, "", nil)
	pool := &distbuild.WorkerPool{Self: "worker", Compile: s.distCompile, Workers: 1, Tracker: obs.NewTracker()}
	defer pool.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // an accepted offer's claim loop finds no coordinator and stops

	wide := make([]distbuild.WireVert, 6)
	for i := range wide {
		wide[i] = distbuild.WireVert{P: i, L: string(rune('a' + i))}
	}
	for name, input := range map[string][]distbuild.WireVert{
		"processes 0-5":  wide,
		"label with ':'": {{P: 0, L: "a:b"}, {P: 1, L: "b"}, {P: 2, L: "c"}},
	} {
		body, err := json.Marshal(distbuild.BuildOffer{
			Build:       "offer-" + name,
			Coordinator: gone.URL,
			Model:       json.RawMessage(`{"name": "sync", "params": {"n": 2, "k": 1, "r": 1}}`),
			Input:       input,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		pool.OfferHandler()(rec, httptest.NewRequest(http.MethodPost, distbuild.OfferPath, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: offer answered %d, want 400", name, rec.Code)
		}
	}
}
