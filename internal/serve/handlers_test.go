package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pseudosphere/internal/core"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
)

// BenchmarkStatsOf times the statistics pass every endpoint reports on an
// A^1 n=3 f=3 complex (4,096 facets) whose canonical hash is not yet
// memoized, as on the rounds endpoint. Counting facets by sorting them
// costs several times the rest of the pass.
func BenchmarkStatsOf(b *testing.B) {
	inst, err := modelspec.FromQuery(url.Values{"model": {"async"}, "n": {"3"}, "f": {"3"}, "r": {"1"}})
	if err != nil {
		b.Fatal(err)
	}
	res, err := inst.Build(context.Background(), core.LabeledSimplex(inst.M), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := res.Complex.Clone()
		b.StartTimer()
		if st := statsOf(c); st.Facets != 4096 {
			b.Fatalf("statsOf counted %d facets, want 4096", st.Facets)
		}
	}
}

// BenchmarkWarmHits times the hit path of the warm-hits workload in
// process. One operation is one request of each of that workload's seven
// query templates (bench/queries.go's cheapTemplates: two pseudosphere
// GETs, graphs specs POSTed to connectivity and rounds, a GF(p) GET, its
// preset-form POST and a small decision), each answered from a filled
// store through Server.Handler(), with no socket or client in between.
func BenchmarkWarmHits(b *testing.B) {
	s, err := New(Config{StoreDir: b.TempDir(), Workers: 1, Pool: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	h := s.Handler()
	reqs := []struct{ path, body string }{ // a POST when body is set
		{"/v1/pseudosphere?n=2&values=3,17,42", ""},
		{"/v1/pseudosphere?betti=false&n=1&values=5,9", ""},
		{"/v1/connectivity", `{"model":{"processes":3,"rounds":2,"adversary":{"kind":"graphs","graphs":[` +
			`{"edges":[[0,1],[1,2]]},{"edges":[[1,0]]},{"edges":[[0,2],[2,1],[1,0]]},{"edges":[]}]}}}`},
		{"/v1/rounds", `{"model":{"processes":3,"rounds":1,"adversary":{"kind":"graphs","graphs":[` +
			`{"edges":[[0,1]]},{"edges":[[2,0],[1,2]]},{"edges":[[0,1],[0,2],[1,0],[1,2],[2,0],[2,1]]}]}}}`},
		{"/v1/connectivity?field=gfp&k=1&model=sync&n=2&p=7919&r=1", ""},
		{"/v1/connectivity", `{"model":{"name":"custom","params":{"k":1,"n":2,"r":1}},"params":{"field":"gfp","p":"104729"}}`},
		{"/v1/decision?agree=2&f=1&limit=5000000&model=async&n=1&r=1&values=1,2,3", ""},
	}
	serve := func(path, body, cache string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if body != "" {
			req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != cache {
			b.Fatalf("%s %s: status %d, X-Cache %q (want 200 %q): %s",
				req.Method, path, rec.Code, rec.Header().Get("X-Cache"), cache, rec.Body)
		}
	}
	for _, r := range reqs {
		serve(r.path, r.body, "miss")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			serve(r.path, r.body, "hit")
		}
	}
}

// BenchmarkSmallJob prices the job API's indirection on small work. Each
// iteration asks one server, with a store and a job directory, for a key
// no earlier iteration asked for: psi(S^2) over a fresh pair of values
// (8 facets, Betti numbers included), so every answer is computed. get
// sends one GET; job submits to /v1/jobs, follows the job's event stream
// to done, and fetches /result.
func BenchmarkSmallJob(b *testing.B) {
	s, err := New(Config{StoreDir: b.TempDir(), JobDir: b.TempDir(), Workers: 1, Pool: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	client := ts.Client()
	fresh := 0 // shared by both sub-benchmarks and all their b.N rounds
	values := func() string {
		fresh++
		return fmt.Sprintf("a%d,b%d", fresh, fresh)
	}
	// fetch sends one request and checks its status and X-Cache class.
	fetch := func(b *testing.B, req *http.Request, status int, cache string) []byte {
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != status || resp.Header.Get("X-Cache") != cache {
			b.Fatalf("%s %s: status %d, X-Cache %q, %v (want %d %q): %s",
				req.Method, req.URL.Path, resp.StatusCode, resp.Header.Get("X-Cache"), err, status, cache, body)
		}
		return body
	}

	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/pseudosphere?n=2&values="+values(), nil)
			fetch(b, req, http.StatusOK, "miss")
		}
	})
	b.Run("job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := fmt.Sprintf(`{"endpoint":"pseudosphere","params":{"n":"2","values":%q}}`, values())
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
			var st jobs.Status
			if err := json.Unmarshal(fetch(b, req, http.StatusAccepted, ""), &st); err != nil {
				b.Fatal(err)
			}
			resp, err := client.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
			if err != nil {
				b.Fatal(err)
			}
			for sc := bufio.NewScanner(resp.Body); !st.State.Terminal() && sc.Scan(); {
				if data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
					if err := json.Unmarshal(data, &st); err != nil {
						b.Fatal(err)
					}
				}
			}
			resp.Body.Close()
			if st.State != jobs.StateDone {
				b.Fatalf("job %s ended %q: %s", st.ID, st.State, st.Error)
			}
			req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
			fetch(b, req, http.StatusOK, "job")
		}
	})
}
