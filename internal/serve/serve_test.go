package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newTestServer builds a Server over a scratch store; pass an empty dir
// to disable the disk layer.
func newTestServer(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{StoreDir: dir, Workers: 2, Pool: 2, Queue: 4, RequestTimeout: 30 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// get fetches a path and decodes the JSON body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

func TestEndpointsServeValidJSON(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("pseudosphere", func(t *testing.T) {
		code, _, body := get(t, ts, "/v1/pseudosphere?n=2&values=0,1")
		if code != 200 {
			t.Fatalf("status %d: %v", code, body)
		}
		// psi(S^2; {0,1}) is a 2-sphere: connectivity 1, betti [1 0 2].
		if got := body["connectivity"].(float64); got != 1 {
			t.Fatalf("connectivity = %v, want 1", got)
		}
		c := body["complex"].(map[string]any)
		if got := c["facets"].(float64); got != 8 {
			t.Fatalf("facets = %v, want 8", got)
		}
	})

	t.Run("rounds", func(t *testing.T) {
		for _, model := range []string{"async", "sync", "semisync", "iis", "custom"} {
			code, _, body := get(t, ts, "/v1/rounds?model="+model+"&n=2&f=1&k=1&r=1")
			if code != 200 {
				t.Fatalf("%s: status %d: %v", model, code, body)
			}
			c := body["complex"].(map[string]any)
			if c["facets"].(float64) <= 0 {
				t.Fatalf("%s: no facets: %v", model, body)
			}
			if c["canonical_hash"].(string) == "" {
				t.Fatalf("%s: empty canonical hash", model)
			}
		}
	})

	t.Run("connectivity", func(t *testing.T) {
		code, _, body := get(t, ts, "/v1/connectivity?model=async&n=2&f=1&r=1")
		if code != 200 {
			t.Fatalf("status %d: %v", code, body)
		}
		want := body["connectivity"].(float64)
		if betti := body["betti"].([]any); betti[0].(float64) != 1 {
			t.Fatalf("A^1(S^2) must be connected, betti %v", betti)
		}
		// GF(p) and Q coefficients agree with the GF(2) verdict here.
		for _, field := range []string{"gfp&p=5", "q"} {
			code, _, b := get(t, ts, "/v1/connectivity?model=async&n=2&f=1&r=1&field="+field)
			if code != 200 {
				t.Fatalf("field %s: status %d: %v", field, code, b)
			}
			if got := b["connectivity"].(float64); got != want {
				t.Fatalf("field %s: connectivity = %v, want %v", field, got, want)
			}
		}
	})

	t.Run("connectivity-capped", func(t *testing.T) {
		code, _, full := get(t, ts, "/v1/connectivity?model=async&n=2&f=1&r=1")
		if code != 200 {
			t.Fatalf("status %d: %v", code, full)
		}
		fullBetti := full["betti"].([]any)
		for upto := 0; upto <= len(fullBetti); upto++ {
			path := fmt.Sprintf("/v1/connectivity?model=async&n=2&f=1&r=1&upto=%d", upto)
			code, _, body := get(t, ts, path)
			if code != 200 {
				t.Fatalf("upto=%d: status %d: %v", upto, code, body)
			}
			if got := body["upto"].(float64); got != float64(upto) {
				t.Fatalf("upto=%d echoed as %v", upto, got)
			}
			// Capped betti must be a prefix of the full vector, and the
			// capped connectivity verdict its min with the cap.
			betti := body["betti"].([]any)
			wantLen := min(upto, len(fullBetti)-1) + 1
			if len(betti) != wantLen {
				t.Fatalf("upto=%d: betti %v, want prefix of %v of length %d", upto, betti, fullBetti, wantLen)
			}
			for d := range betti {
				if betti[d].(float64) != fullBetti[d].(float64) {
					t.Fatalf("upto=%d: betti %v is not a prefix of %v", upto, betti, fullBetti)
				}
			}
			wantConn := full["connectivity"].(float64)
			if float64(upto) < wantConn {
				wantConn = float64(upto)
			}
			if got := body["connectivity"].(float64); got != wantConn {
				t.Fatalf("upto=%d: connectivity %v, want %v", upto, got, wantConn)
			}
		}
	})

	t.Run("decision", func(t *testing.T) {
		// Corollary 13: consensus (agree=1) is unsolvable in A^1 with f=1.
		code, _, body := get(t, ts, "/v1/decision?model=async&n=2&f=1&r=1&agree=1")
		if code != 200 {
			t.Fatalf("status %d: %v", code, body)
		}
		if body["solvable"].(bool) {
			t.Fatalf("consensus reported solvable in A^1, f=1: %v", body)
		}
		// 3-set agreement with 2 values is trivially solvable.
		code, _, body = get(t, ts, "/v1/decision?model=async&n=2&f=1&r=1&agree=3&include_map=true")
		if code != 200 || !body["solvable"].(bool) {
			t.Fatalf("3-set agreement: status %d, body %v", code, body)
		}
		if len(body["decision_map"].([]any)) == 0 {
			t.Fatal("include_map=true returned no decision map")
		}
	})

	t.Run("bad-requests", func(t *testing.T) {
		for _, path := range []string{
			"/v1/rounds?model=martian",
			"/v1/rounds?n=nope",
			"/v1/rounds?model=async&n=2&m=5",
			"/v1/rounds?model=semisync&c1=3&c2=1",
			"/v1/connectivity?field=f7",
			"/v1/connectivity?upto=-1",
			"/v1/connectivity?upto=nope",
			"/v1/connectivity?field=gfp&p=5&upto=1",
			"/v1/decision?agree=0",
			// "a);1:(1=b" holds encoding delimiters: as process 0's input
			// it would share the label 0[0:(0=a);1:(1=b)] with process 0
			// holding "a" after hearing process 1's "b".
			"/v1/decision?model=sync&n=1&k=1&r=1&agree=1&values=a,a%29%3B1%3A%281%3Db,b",
			"/v1/pseudosphere?values=0,0",
		} {
			code, _, body := get(t, ts, path)
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d (want 400): %v", path, code, body)
			}
			if body["error"].(string) == "" {
				t.Errorf("%s: empty error message", path)
			}
		}
	})
}

// TestResponseStoreHitOnRepeat pins the serving contract the CI smoke job
// asserts: the second identical query is served from the disk store
// (X-Cache: hit) with byte-identical content, and the hit is visible in
// the metrics endpoint.
func TestResponseStoreHitOnRepeat(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = "/v1/connectivity?model=sync&n=3&k=1&r=2"
	code, cache1, body1 := get(t, ts, path)
	if code != 200 || cache1 != "miss" {
		t.Fatalf("first call: status %d, X-Cache %q", code, cache1)
	}
	// Responses persist synchronously inside their flight, so the second
	// call is deterministically a disk hit.
	code, cache2, body2 := get(t, ts, path)
	if code != 200 {
		t.Fatalf("second call: status %d: %v", code, body2)
	}
	if cache2 != "hit" {
		t.Fatalf("second call: X-Cache %q, want hit", cache2)
	}
	if fmt.Sprint(body1) != fmt.Sprint(body2) {
		t.Fatalf("hit body differs from miss body:\n%v\n%v", body1, body2)
	}
	_, _, metrics := get(t, ts, "/metrics")
	counters := metrics["counters"].(map[string]any)
	if counters["resp_store_hits"].(float64) < 1 {
		t.Fatalf("metrics report no response-store hits: %v", counters)
	}
	st := metrics["store"].(map[string]any)
	if st["hits"].(float64) < 1 {
		t.Fatalf("store stats report no hits: %v", st)
	}
}

// TestStoreSurvivesRestart: a fresh Server over the same store directory
// answers from disk without recomputing (the cross-restart contract).
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/connectivity?model=async&n=2&f=2&r=1"

	s1 := newTestServer(t, dir, nil)
	ts1 := httptest.NewServer(s1.Handler())
	_, cache1, body1 := get(t, ts1, path)
	ts1.Close()
	s1.Close()
	if cache1 != "miss" {
		t.Fatalf("first process: X-Cache %q, want miss", cache1)
	}

	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, cache2, body2 := get(t, ts2, path)
	if cache2 != "hit" {
		t.Fatalf("second process: X-Cache %q, want hit", cache2)
	}
	if fmt.Sprint(body1) != fmt.Sprint(body2) {
		t.Fatal("restarted server served different bytes")
	}
}

// TestBettiBackingSharedAcrossParams: two different parameter tuples that
// build hash-identical complexes share one reduction through the
// store-backed homology cache. The custom preset compiles to the sync
// model at f=rk, so sync n=2 k=1 r=1 and custom n=2 k=1 r=1 produce the
// same canonical hash.
func TestBettiBackingSharedAcrossParams(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, dir, nil)
	ts1 := httptest.NewServer(s1.Handler())
	_, _, body1 := get(t, ts1, "/v1/connectivity?model=sync&n=2&k=1&r=1")
	ts1.Close()
	s1.Close()

	// Fresh process, different params, same complex: the response misses
	// but the Betti vector arrives from the disk backing, not a reduction.
	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, cache2, body2 := get(t, ts2, "/v1/connectivity?model=custom&n=2&k=1&r=1")
	if cache2 != "miss" {
		t.Fatalf("different params served as response hit (%q)", cache2)
	}
	h1 := body1["complex"].(map[string]any)["canonical_hash"].(string)
	h2 := body2["complex"].(map[string]any)["canonical_hash"].(string)
	if h1 != h2 {
		t.Fatalf("expected hash-identical complexes, got %s vs %s", h1, h2)
	}
	if got := body2["betti"]; fmt.Sprint(got) != fmt.Sprint(body1["betti"]) {
		t.Fatalf("betti disagree: %v vs %v", body1["betti"], got)
	}
	if s2.betti.BackingHits() != 1 {
		t.Fatalf("BackingHits = %d, want 1 (reduction should have come from disk)", s2.betti.BackingHits())
	}
}

// TestBudgetAdmission: an oversized construction is refused upfront with
// 413, quickly, and without occupying the pool.
func TestBudgetAdmission(t *testing.T) {
	s := newTestServer(t, "", func(c *Config) { c.MaxFacets = 1000 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	code, _, body := get(t, ts, "/v1/rounds?model=async&n=4&f=4&r=1")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (want 413): %v", code, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget rejection took %v; the estimate must not build the complex", elapsed)
	}
	_, _, metrics := get(t, ts, "/metrics")
	if c := metrics["counters"].(map[string]any); c["rejected_budget"].(float64) != 1 {
		t.Fatalf("rejected_budget counter: %v", c["rejected_budget"])
	}
}

// TestBudgetAdmissionOverflow: a model whose facet product does not fit
// an int64 is priced as saturated and refused with 413. Async with f = n
// has one branch of 2^(n(n+1)) facets, a product that wraps to exactly 0
// in int64 arithmetic for these n.
func TestBudgetAdmissionOverflow(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/rounds?model=async&n=12&f=12&r=1",
		"/v1/rounds?model=async&n=8&f=8&r=1",
		"/v1/connectivity?model=async&n=10&f=10&r=1",
	}
	for _, path := range paths {
		if code, _, body := get(t, ts, path); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (want 413): %v", path, code, body)
		}
	}
	_, _, metrics := get(t, ts, "/metrics")
	if got := metrics["counters"].(map[string]any)["rejected_budget"]; got != float64(len(paths)) {
		t.Fatalf("rejected_budget counter: %v, want %d", got, len(paths))
	}
}

// TestIISPricedByArithmetic: an IIS request is refused before pricing
// enumerates a single ordered partition. IIS n=5 r=2 has 4683^2 facet
// insertions, over the default budget by its arithmetic floor, and n=7 is
// out of the preset's range.
func TestIISPricedByArithmetic(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/rounds?model=iis&n=5&r=2", http.StatusRequestEntityTooLarge},
		{"/v1/rounds?model=iis&n=7&r=1", http.StatusBadRequest},
	} {
		start := time.Now()
		code, _, body := get(t, ts, tc.path)
		if code != tc.code {
			t.Errorf("%s: status %d (want %d): %v", tc.path, code, tc.code, body)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: refusal took %v; it must not enumerate the partitions", tc.path, elapsed)
		}
	}
}

// TestCrashModelsPricedByArithmetic: a request for a crash-failure model
// (sync, custom, semisync, a crash spec, or Section 6's async) over the
// budget is refused by the model's arithmetic count, without a single
// Branches call. Pricing by walking the branch tree took seconds and
// gigabytes on each of these, or ran out of memory; async n=12 f=12 r=6
// took 143 ms and 788,158 allocations to refuse, as a GET and again as a
// job submission.
func TestCrashModelsPricedByArithmetic(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.JobDir = t.TempDir() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const crashSpec = `{"model": {"processes": 13, "adversary": {"kind": "crash", "per_round": 12}}}`
	for _, tc := range []struct{ name, path, body string }{
		{"sync_n12_k12_r1", "/v1/rounds?model=sync&n=12&k=12&r=1", ""},
		{"sync_n12_k12_r2", "/v1/rounds?model=sync&n=12&k=12&r=2", ""},
		{"sync_n12_k1_r4", "/v1/rounds?model=sync&n=12&k=1&r=4", ""},
		{"custom_n10_k10_r2", "/v1/rounds?model=custom&n=10&k=10&r=2", ""},
		{"semisync_n8_k8_r1", "/v1/rounds?model=semisync&n=8&k=8&r=1", ""},
		{"semisync_n10_k10_r1", "/v1/rounds?model=semisync&n=10&k=10&r=1", ""},
		{"semisync_n12_k1_r3", "/v1/rounds?model=semisync&n=12&k=1&r=3", ""},
		{"crash_spec_13_per_round_12", "/v1/rounds", crashSpec},
		{"async_n12_f12_r6", "/v1/rounds?model=async&n=12&f=12&r=6", ""},
		{"async_n12_f12_r6_job", "/v1/jobs", `{"endpoint": "rounds", "params": {"model": "async", "n": "12", "f": "12", "r": "6"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			var code int
			var body map[string]any
			if tc.body == "" {
				code, _, body = get(t, ts, tc.path)
			} else {
				code, _, body = post(t, ts, tc.path, tc.body)
			}
			if code != http.StatusRequestEntityTooLarge {
				t.Errorf("status %d (want 413): %v", code, body)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("refusal took %v; it must not walk the branch tree", elapsed)
			}
		})
	}
}

// TestDecisionInputBudget pins the REVIEW fix: a /v1/decision request
// whose |values|^(n+1) input facets exceed the budget must be refused by
// arithmetic (413, fast) — never by enumerating the inputs first, which
// at n=12 with 16 values would be ~16^13 simplices and an OOM kill.
func TestDecisionInputBudget(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	code, _, body := get(t, ts,
		"/v1/decision?model=async&n=12&f=1&r=1&values=0,1,2,3,4,5,6,7,8,9,a,b,c,d,e,f")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (want 413): %v", code, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("input-facet rejection took %v; it must not materialize the inputs", elapsed)
	}
	_, _, metrics := get(t, ts, "/metrics")
	if c := metrics["counters"].(map[string]any); c["rejected_budget"].(float64) != 1 {
		t.Fatalf("rejected_budget counter: %v", c["rejected_budget"])
	}
}

// TestGFpValidatedAtParse pins the REVIEW fix: a non-prime (or oversized)
// p for field=gfp is a 400 at parse time — before admission and before
// any construction work is spent.
func TestGFpValidatedAtParse(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"4", "1", "0", "-7", "9", "1048577"} {
		// Large model params: if validation ran after construction this
		// would take seconds and move the facets counter.
		code, _, body := get(t, ts, "/v1/connectivity?model=async&n=4&f=4&r=1&field=gfp&p="+bad)
		if code != http.StatusBadRequest {
			t.Errorf("p=%s: status %d (want 400): %v", bad, code, body)
		}
	}
	if got := s.tracker.Counters()["facets"]; got != 0 {
		t.Fatalf("invalid p still built a complex (%d facet insertions)", got)
	}
}

// TestPersistAfterClose: a compute that finishes after Close (the
// hard-abort path does not wait for handler goroutines) must still land
// its response in the store, not panic.
func TestPersistAfterClose(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	s.Close()
	s.persist("resp|late", []byte(`{"late":true}`))
	if _, ok := s.store.Get("resp|late"); !ok {
		t.Fatal("post-Close persist did not land via the synchronous fallback")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, _, body := get(t, ts, "/healthz")
	if code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}
