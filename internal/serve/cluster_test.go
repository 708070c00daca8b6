package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFleet builds n live replicas that know each other. Replica URLs
// must exist before New (they go into every ClusterConfig), but httptest
// assigns ports at Start — so the listeners are reserved first, the
// servers built against the resulting URLs, and the httptest wrappers
// started on the reserved listeners.
func newFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) (urls []string, servers []*Server, tss []*httptest.Server) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls = make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	servers = make([]*Server, n)
	tss = make([]*httptest.Server, n)
	for i := range servers {
		cfg := Config{
			StoreDir:       t.TempDir(),
			Workers:        2,
			Pool:           2,
			Queue:          4,
			RequestTimeout: 30 * time.Second,
			Cluster:        &ClusterConfig{Self: urls[i], Peers: urls, VNodes: 8},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		tss[i] = ts
	}
	t.Cleanup(func() {
		for i := range servers {
			tss[i].Close()
			servers[i].Close()
		}
	})
	return urls, servers, tss
}

func computesOf(s *Server) uint64 { return s.tracker.Counters()["computes"] }

// TestClusterCrossReplicaHit is the fleet contract in one exchange: a
// cold build triggered through replica A is served as a cache hit by
// replica B — either B owns the key (A delegated the compute to it) or
// B read-through-fills from the owner. Exactly one compute runs on
// exactly one replica either way.
func TestClusterCrossReplicaHit(t *testing.T) {
	_, servers, tss := newFleet(t, 2, nil)
	const path = "/v1/connectivity?model=async&n=2&f=1&r=1"

	code, _, _ := get(t, tss[0], path)
	if code != 200 {
		t.Fatalf("cold request via replica 0: status %d", code)
	}
	code, cache, _ := get(t, tss[1], path)
	if code != 200 {
		t.Fatalf("warm request via replica 1: status %d", code)
	}
	if cache != "hit" {
		t.Fatalf("replica 1 served X-Cache %q, want \"hit\" (cross-replica cache)", cache)
	}
	c0, c1 := computesOf(servers[0]), computesOf(servers[1])
	if c0+c1 != 1 {
		t.Fatalf("fleet ran %d computes (replica0=%d replica1=%d), want exactly 1", c0+c1, c0, c1)
	}
}

// TestClusterSingleflightCollapse: identical cold requests hammered at
// BOTH replicas concurrently still cost one compute — non-owners
// delegate to the owner, whose refcounted singleflight coalesces them.
// The assertion is timing-independent: late arrivals that miss the
// flight window hit the store instead, and either way computes == 1.
func TestClusterSingleflightCollapse(t *testing.T) {
	_, servers, tss := newFleet(t, 2, nil)
	const path = "/v1/connectivity?model=async&n=3&f=3&r=1"

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		ts := tss[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total := computesOf(servers[0]) + computesOf(servers[1]); total != 1 {
		t.Fatalf("8 concurrent identical requests cost %d computes, want 1", total)
	}
}

// TestRouterFleet drives the full topology: requests enter through the
// router, land on the key's owner, and the second ask is a hit; killing
// a replica leaves the router answering.
func TestRouterFleet(t *testing.T) {
	urls, servers, tss := newFleet(t, 2, nil)
	router, err := NewRouter(RouterConfig{Replicas: urls, VNodes: 8, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	const path = "/v1/connectivity?model=async&n=2&f=2&r=1"
	code, cache, _ := get(t, rts, path)
	if code != 200 || cache != "miss" {
		t.Fatalf("first routed request: status %d, X-Cache %q; want 200 miss", code, cache)
	}
	code, cache, _ = get(t, rts, path)
	if code != 200 || cache != "hit" {
		t.Fatalf("second routed request: status %d, X-Cache %q; want 200 hit", code, cache)
	}
	c0, c1 := computesOf(servers[0]), computesOf(servers[1])
	if c0+c1 != 1 || (c0 != 0 && c1 != 0) {
		t.Fatalf("compute ran on both replicas or more than once (replica0=%d replica1=%d)", c0, c1)
	}

	// Bad requests are refused at the router, before any replica hop.
	code, _, body := get(t, rts, "/v1/connectivity?model=zeppelin&n=2&r=1")
	if code != 400 {
		t.Fatalf("bad model via router: status %d (%v), want 400", code, body)
	}

	// Kill the replica that computed; the router must fail over and keep
	// answering — both the already-warm key and a brand-new one.
	dead := 0
	if c1 > 0 {
		dead = 1
	}
	tss[dead].Close()
	code, _, _ = get(t, rts, path)
	if code != 200 {
		t.Fatalf("warm request after killing replica %d: status %d", dead, code)
	}
	code, _, _ = get(t, rts, "/v1/pseudosphere?n=1&values=0,1")
	if code != 200 {
		t.Fatalf("cold request after killing replica %d: status %d", dead, code)
	}
}

// TestRouterJobRouting: a job submitted through the router lands on one
// replica, and every id-addressed follow-up (status, result) routes to
// that same replica — the id is derived from the canonical key on both
// sides of the proxy, so the fleet preserves the local dedup property.
func TestRouterJobRouting(t *testing.T) {
	urls, servers, _ := newFleet(t, 2, func(i int, cfg *Config) { cfg.JobDir = t.TempDir() })
	router, err := NewRouter(RouterConfig{Replicas: urls, VNodes: 8, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	spec := strings.NewReader(`{"endpoint":"connectivity","params":{"model":"async","n":"2","f":"1","r":"1"}}`)
	resp, err := rts.Client().Post(rts.URL+"/v1/jobs", "application/json", spec)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 || st.ID == "" {
		t.Fatalf("submit via router: status %d, id %q", resp.StatusCode, st.ID)
	}

	deadline := time.Now().Add(20 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", st.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
		code, _, body := get(t, rts, "/v1/jobs/"+st.ID)
		if code != 200 {
			t.Fatalf("status poll via router: %d (%v)", code, body)
		}
		st.State, _ = body["state"].(string)
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job ended %s: %v", st.State, body)
		}
	}
	code, cache, body := get(t, rts, "/v1/jobs/"+st.ID+"/result")
	if code != 200 || cache != "job" {
		t.Fatalf("result via router: status %d, X-Cache %q (%v)", code, cache, body)
	}
	// Exactly one replica ever saw the job: routing by id is consistent
	// with routing the submit by spec.
	sub0 := servers[0].tracker.Counters()["jobs_submitted"]
	sub1 := servers[1].tracker.Counters()["jobs_submitted"]
	if sub0+sub1 != 1 {
		t.Fatalf("job submitted on %d replicas (replica0=%d replica1=%d), want 1", sub0+sub1, sub0, sub1)
	}
}

// TestClusterRequiresStore: a fleet replica without a disk tier is a
// misconfiguration, refused at construction.
func TestClusterRequiresStore(t *testing.T) {
	_, err := New(Config{Cluster: &ClusterConfig{Self: "http://a", Peers: []string{"http://a"}}})
	if err == nil || !strings.Contains(err.Error(), "StoreDir") {
		t.Fatalf("New without StoreDir: err = %v, want StoreDir complaint", err)
	}
}

// TestDelegationHopHeader: a request carrying the hop header must be
// computed where it lands, never re-delegated — the loop-prevention
// invariant the router relies on.
func TestDelegationHopHeader(t *testing.T) {
	_, servers, tss := newFleet(t, 2, nil)
	const path = "/v1/pseudosphere?n=1&values=0,1&betti=false"

	for i, ts := range tss {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(hopHeader, "1")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("replica %d with hop header: status %d", i, resp.StatusCode)
		}
	}
	// Both replicas were forced to answer themselves: the first computed,
	// the second either read-through-filled or computed — but neither may
	// have delegated.
	for i, s := range servers {
		if got := s.tracker.Counters()["cluster_delegated"]; got != 0 {
			t.Fatalf("replica %d delegated %d requests despite the hop header", i, got)
		}
	}
}
