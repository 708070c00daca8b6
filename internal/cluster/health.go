package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Health tracks replica liveness for the router. Two signals feed it:
// a background prober that GETs each replica's /healthz on an interval
// (down nodes come back up the moment they answer again), and
// MarkDown, called by the proxy path the instant a forward fails — so
// a crashed replica is skipped on the very next request instead of one
// probe period later. A node that has never been probed counts as up:
// optimism costs one failed proxy, pessimism would black-hole a fresh
// fleet.
type Health struct {
	mu    sync.RWMutex
	down  map[string]bool
	close context.CancelFunc
	done  chan struct{}
}

// healthProbeTimeout bounds one /healthz probe; a replica that cannot
// answer within it is down for routing purposes.
const healthProbeTimeout = 2 * time.Second

// NewHealth starts probing nodes every interval (<= 0 disables the
// background prober, leaving MarkDown/MarkUp as the only signals — the
// mode tests use). Close stops the prober.
func NewHealth(nodes []string, interval time.Duration) *Health {
	h := &Health{down: make(map[string]bool), done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	h.close = cancel
	if interval <= 0 {
		close(h.done)
		return h
	}
	client := &http.Client{Timeout: healthProbeTimeout}
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			for _, node := range nodes {
				up := probe(ctx, client, node)
				h.mu.Lock()
				h.down[node] = !up
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// probe reports whether node's /healthz answers 200. It reads the body
// to the end before closing it, so the client reuses the connection on
// the next probe instead of dialing again.
func probe(ctx context.Context, client *http.Client, node string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Up reports whether node is currently believed alive.
func (h *Health) Up(node string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return !h.down[node]
}

// MarkDown records an observed failure (e.g. a refused proxy
// connection); the prober will flip the node back up when it recovers.
func (h *Health) MarkDown(node string) {
	h.mu.Lock()
	h.down[node] = true
	h.mu.Unlock()
}

// MarkUp records an observed success, clearing a stale down mark early.
func (h *Health) MarkUp(node string) {
	h.mu.Lock()
	h.down[node] = false
	h.mu.Unlock()
}

// Close stops the background prober and waits for it to exit.
func (h *Health) Close() {
	h.close()
	<-h.done
}
