package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestProbeReusesConnection: successive probes of one node travel over
// one TCP connection, since each reads the /healthz body before closing
// it.
func TestProbeReusesConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := &http.Client{Timeout: healthProbeTimeout}
	for i := 0; i < 5; i++ {
		if !probe(context.Background(), client, srv.URL) {
			t.Fatalf("probe %d: node reported down", i)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("5 probes opened %d connections, want 1", n)
	}
}
