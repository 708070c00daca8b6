package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// newClient returns the load process's one HTTP client: at most conns
// connections per target, kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// response is one completed HTTP exchange.
type response struct {
	status int
	body   []byte
	cache  string // X-Cache
	err    error
}

// send issues req and reads the whole body.
func send(client *http.Client, req *http.Request) response {
	resp, err := client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{err: err}
	}
	return response{status: resp.StatusCode, body: body, cache: resp.Header.Get("X-Cache")}
}

// sendQuery issues q against base with a per-request deadline.
func sendQuery(client *http.Client, q query, base string, timeout time.Duration) response {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := q.request(ctx, base)
	if err != nil {
		return response{err: err}
	}
	return send(client, req)
}

// runJob submits q as a job on base, follows its event stream to a
// terminal state, and fetches the result. It returns the time from
// submission to the terminal event, and the result response.
func runJob(client *http.Client, q query, base string) (time.Duration, response) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec, err := json.Marshal(map[string]any{"endpoint": q.Endpoint, "params": q.Params})
	if err != nil {
		return 0, response{err: err}
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(string(spec)))
	if err != nil {
		return 0, response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	sub := send(client, req)
	if sub.err != nil || sub.status != http.StatusAccepted {
		return time.Since(start), sub
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub.body, &st); err != nil || st.ID == "" {
		return time.Since(start), response{err: fmt.Errorf("job submission answered %q", sub.body)}
	}
	state, err := followJob(ctx, client, base, st.ID)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, response{err: err}
	}
	if state != "done" {
		return elapsed, response{err: fmt.Errorf("job %s ended %s", st.ID, state)}
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return elapsed, response{err: err}
	}
	return elapsed, send(client, req)
}

// followJob reads the job's server-sent events until a terminal state.
func followJob(ctx context.Context, client *http.Client, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return "", fmt.Errorf("job event %q: %w", data, err)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("job %s event stream ended before a terminal state", id)
}

// closedLoop runs conns clients for the given seconds, each sending its
// next request as soon as the previous one is answered. do performs one
// request and returns its latency in ms and whether it succeeded; the
// latencies of the successes are returned with the seconds the loop ran.
func closedLoop(seconds float64, conns int, do func() (float64, bool)) ([]float64, float64) {
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for time.Now().Before(deadline) {
				if ms, ok := do(); ok {
					mine = append(mine, ms)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, time.Since(start).Seconds()
}
