package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestClientDisconnectCancelsCompute is the server-side cancellation
// contract: a client that goes away mid-/v1/connectivity must cancel the
// underlying enumeration promptly — no orphaned construction grinding on,
// no worker goroutines left behind. Same shape as the asyncmodel
// mid-run cancellation test: cancel once the facet counter shows real
// progress, then require a fast unwind and a clean goroutine count.
func TestClientDisconnectCancelsCompute(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tracker := s.tracker

	// Baseline after the server (and its put loop) is up.
	before := runtime.NumGoroutine()

	// async n=4 f=4 r=1 is large enough (~10^7 facet insertions) that the
	// enumeration cannot outrun the canceller.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for tracker.Counters()["facets"] == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()

	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/connectivity?model=async&n=4&f=4&r=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := ts.Client().Do(req)
	elapsed := time.Since(start)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("request completed (status %d) before cancellation fired", resp.StatusCode)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a context.Canceled transport error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled request took %v to return to the client", elapsed)
	}

	// The handler unwinds asynchronously after the disconnect: wait for the
	// server to record the cancellation and for the workers to exit.
	deadline := time.Now().Add(5 * time.Second)
	for tracker.Counters()["cancelled"] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tracker.Counters()["cancelled"]; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after client disconnect: %d before, %d after", before, g)
	}

	// The pool slot must have been released: a small follow-up request
	// succeeds immediately.
	code, _, body := get(t, ts, "/v1/connectivity?model=async&n=2&f=1&r=1")
	if code != 200 {
		t.Fatalf("follow-up request after cancellation: status %d: %v", code, body)
	}
}

// TestSaturationReturns429: with a pool of one and no queue, a second
// concurrent compute is refused with 429 + Retry-After while the first is
// still running — and cache hits keep being served.
func TestSaturationReturns429(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, func(c *Config) { c.Pool = 1; c.Queue = -1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tracker := s.tracker

	// Warm one small entry so we can prove hits bypass admission.
	if code, _, body := get(t, ts, "/v1/rounds?model=iis&n=2&r=1"); code != 200 {
		t.Fatalf("warmup: status %d: %v", code, body)
	}
	// The put is synchronous inside the flight: the entry is on disk.
	if _, _, puts, _ := s.store.Stats(); puts == 0 {
		t.Fatal("warmup entry not persisted")
	}

	// Occupy the single pool slot with a long compute. The warmup already
	// moved the shared facet counter, so wait for it to move again — that
	// means the blocker passed admission and holds the slot.
	facetsWarm := tracker.Counters()["facets"]
	deadline := time.Now().Add(5 * time.Second)
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		resp, err := ts.Client().Get(ts.URL + "/v1/rounds?model=async&n=4&f=4&r=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	for tracker.Counters()["facets"] == facetsWarm {
		if time.Now().After(deadline) {
			t.Fatal("blocker request never started computing")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A different compute is refused immediately.
	resp, err := ts.Client().Get(ts.URL + "/v1/rounds?model=sync&n=3&k=1&r=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := tracker.Counters()["rejected_saturated"]; got != 1 {
		t.Fatalf("rejected_saturated counter = %d, want 1", got)
	}

	// The warm entry is still served (hits precede admission).
	code, cache, body := get(t, ts, "/v1/rounds?model=iis&n=2&r=1")
	if code != 200 || cache != "hit" {
		t.Fatalf("warm request under saturation: status %d, X-Cache %q: %v", code, cache, body)
	}

	// Let the blocker finish so Close doesn't wait on it.
	s.Abort()
	<-blockerDone
}

// TestLargeTimeoutKeepsServerDeadline: a timeout_ms at or above the
// server deadline keeps the deadline, however large. Converting such a
// value to a Duration first overflows, and the compute would start out
// expired (504). A value that is not a positive integer is refused.
func TestLargeTimeoutKeepsServerDeadline(t *testing.T) {
	s := newTestServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ms := range []string{"9223372036855", "18446744073709"} {
		code, cache, body := get(t, ts, "/v1/rounds?model=async&n=2&f=1&r=1&timeout_ms="+ms)
		if code != http.StatusOK || cache != "miss" {
			t.Fatalf("timeout_ms=%s: status %d, X-Cache %q (want 200 miss): %v", ms, code, cache, body)
		}
	}
	for _, ms := range []string{"0", "-5", "1.5", "x"} {
		if code, _, body := get(t, ts, "/v1/rounds?model=async&n=2&f=1&r=1&timeout_ms="+ms); code != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s: status %d (want 400): %v", ms, code, body)
		}
	}
}

// TestBadTimeoutRefusedOnWarmKey: timeout_ms is checked before the
// response store, so a value that is not a positive integer gets 400 on
// a warm key as on a cold one, through GET and through the POST form.
func TestBadTimeoutRefusedOnWarmKey(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const path = "/v1/rounds?model=async&n=2&f=1&r=1"
	const spec = `{"model": {"name": "async", "params": {"n": 2, "f": 1, "r": 1}}}`
	get(t, ts, path)
	if code, cache, body := get(t, ts, path); code != http.StatusOK || cache != "hit" {
		t.Fatalf("warming GET: status %d, X-Cache %q (want 200 hit): %v", code, cache, body)
	}
	if code, cache, body := post(t, ts, "/v1/rounds", spec); code != http.StatusOK || cache != "hit" {
		t.Fatalf("warm POST: status %d, X-Cache %q (want 200 hit): %v", code, cache, body)
	}
	for _, ms := range []string{"0", "-5", "x"} {
		if code, cache, body := get(t, ts, path+"&timeout_ms="+ms); code != http.StatusBadRequest {
			t.Fatalf("GET timeout_ms=%s: status %d, X-Cache %q (want 400): %v", ms, code, cache, body)
		}
		if code, cache, body := post(t, ts, "/v1/rounds?timeout_ms="+ms, spec); code != http.StatusBadRequest {
			t.Fatalf("POST timeout_ms=%s: status %d, X-Cache %q (want 400): %v", ms, code, cache, body)
		}
	}
}
