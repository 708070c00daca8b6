// Command serve runs the long-running query service: the toolkit's
// engines — pseudosphere construction, the unified round operator,
// Betti/connectivity verdicts, decision-map solvability — exposed as
// HTTP/JSON endpoints over a persistent content-addressed result store.
//
// Usage:
//
//	serve -addr :8080 -store /var/cache/pseudosphere -jobs /var/cache/pseudosphere-jobs
//
// Endpoints:
//
//	GET /v1/pseudosphere?n=2&values=0,1
//	GET /v1/rounds?model=async&n=2&f=1&r=1
//	GET /v1/connectivity?model=sync&n=3&k=1&r=2&field=z2
//	GET /v1/decision?model=async&n=2&f=1&r=1&agree=2&values=0,1
//	POST /v1/rounds                  {"model":{"processes":3,"adversary":{...}},"params":{...}}
//	POST /v1/connectivity            same inline-spec body form
//	POST /v1/decision                same inline-spec body form
//	POST /v1/jobs                    {"endpoint":"rounds","params":{"model":"async","n":"4","f":"2","r":"1"}}
//	                                 or {"endpoint":"rounds","model":{...inline spec...}}
//	GET /v1/jobs/{id}                status + live progress
//	GET /v1/jobs/{id}/events         server-sent status events
//	GET /v1/jobs/{id}/result         the payload once done (202 while not)
//	DELETE /v1/jobs/{id}             cancel
//	GET /healthz, /metrics, /debug/vars
//
// Results are cached at two levels (whole responses by canonical request
// key, Betti vectors by complex canonical hash), both persisted in the
// -store directory, so repeated and cross-restart queries are a disk read
// instead of an enumeration. Misses run under a bounded admission pool
// (-pool/-queue, 429 + Retry-After when saturated) with per-request
// deadlines (-timeout) and upfront work budgets (-max-facets) — see the
// README's Serving section.
//
// The -jobs directory enables the async job API: computations too long
// for a request deadline run in the background, checkpoint their progress
// (construction shards, homology ranks), persist their result in the
// store, and — because job records and checkpoints are durable — survive
// a restart by resuming from the last completed shard. See the README's
// Jobs section.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener stops accepting,
// in-flight enumerations drain (up to -drain-timeout, then they are
// cancelled), running jobs checkpoint and requeue, the result store
// flushes, and the process exits 0 on a clean drain.
//
// The -mode flag scales the service horizontally:
//
//	-mode standalone   (default) one process serves everything
//	-mode replica      one fleet member; -self is its own base URL and
//	                   -peers lists every replica (itself included).
//	                   Replicas shard the result store by consistent
//	                   hashing: each key has one owner, misses fill from
//	                   the owner over HTTP, and cold requests delegate to
//	                   the owner so concurrent identical work collapses
//	                   into one compute fleet-wide.
//	-mode router       the fleet's front door; -replicas lists the
//	                   replica base URLs. The router derives each
//	                   request's canonical key, sends it to the key's
//	                   owner, and fails over along the ring when a
//	                   replica is down (probed every -health-interval).
//
// A 1-router + N-replica fleet answers exactly the same API as a
// standalone process — standalone is simply a fleet of one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/serve"
)

func main() {
	os.Exit(realMain(os.Args[1:], nil))
}

// realMain runs the service; ready (optional, for tests) receives the
// listener's bound address once the server is accepting.
func realMain(args []string, ready chan<- net.Addr) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", "", "result store directory (empty: in-memory caching only)")
	workers := fs.Int("workers", 0, "distributed-build claim loops per replica (0 = NumCPU)")
	pool := fs.Int("pool", 0, "max concurrent computes (0 = NumCPU)")
	queue := fs.Int("queue", 0, "max queued computes beyond the pool (0 = 4x pool, -1 = none)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request compute deadline")
	maxFacets := fs.Int64("max-facets", 0, "admission budget on estimated facet insertions (0 = 8M)")
	nodeLimit := fs.Int64("node-limit", 0, "decision search node budget (0 = 20M)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
	jobDir := fs.String("jobs", "", "job directory enabling the async job API (requires -store)")
	maxJobs := fs.Int("max-jobs", 0, "max concurrently running jobs (0 = 1)")
	jobQueue := fs.Int("job-queue", 0, "max queued jobs (0 = 64)")
	jobRetention := fs.Duration("job-retention", 0, "how long terminal jobs stay pollable (0 = 1h)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job run deadline (0 = none)")
	jobCkptEvery := fs.Int("job-checkpoint-every", 0, "construction shards per checkpoint flush (0 = 8)")
	mode := fs.String("mode", "standalone", "process role: standalone, replica, or router")
	self := fs.String("self", "", "replica mode: this replica's base URL as peers reach it")
	peers := fs.String("peers", "", "replica mode: comma-separated base URLs of every replica (including -self)")
	distThreshold := fs.Int64("dist-threshold", 0, "replica mode: distribute constructions whose facet estimate meets this across the fleet (0 = off)")
	distLease := fs.Duration("dist-lease", 0, "replica mode: shard-range lease deadline for distributed builds (0 = 10s)")
	replicas := fs.String("replicas", "", "router mode: comma-separated replica base URLs")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "router mode: replica health probe period")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *distThreshold > 0 && *mode != "replica" {
		fmt.Fprintln(os.Stderr, "serve: -dist-threshold requires -mode replica (distribution is a fleet protocol)")
		return 2
	}

	logger := log.New(os.Stderr, "serve: ", log.LstdFlags)
	tracker := obs.NewTracker()
	tracker.PublishExpvar("serve.counters", "serve.stages")

	var clusterCfg *serve.ClusterConfig
	switch *mode {
	case "standalone":
	case "replica":
		if *self == "" || *peers == "" {
			fmt.Fprintln(os.Stderr, "serve: -mode replica requires -self and -peers")
			return 2
		}
		peerList := splitURLs(*peers)
		selfURL := strings.TrimRight(strings.TrimSpace(*self), "/")
		if !contains(peerList, selfURL) {
			fmt.Fprintln(os.Stderr, "serve: -peers must include -self (the replica is on its own ring)")
			return 2
		}
		clusterCfg = &serve.ClusterConfig{Self: selfURL, Peers: peerList, VNodes: *vnodes}
	case "router":
		if *replicas == "" {
			fmt.Fprintln(os.Stderr, "serve: -mode router requires -replicas")
			return 2
		}
		replicaList := splitURLs(*replicas)
		router, err := serve.NewRouter(serve.RouterConfig{
			Replicas:       replicaList,
			VNodes:         *vnodes,
			HealthInterval: *healthInterval,
			NodeLimit:      *nodeLimit,
			Tracker:        tracker,
			Log:            logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return 1
		}
		return serveUntilSignal(*addr, router.Handler(), nil, router.Close, *drainTimeout, logger,
			fmt.Sprintf("mode=router replicas=%d", len(replicaList)), ready)
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown -mode %q (want standalone, replica, or router)\n", *mode)
		return 2
	}

	srv, err := serve.New(serve.Config{
		StoreDir:           *storeDir,
		Workers:            *workers,
		Pool:               *pool,
		Queue:              *queue,
		RequestTimeout:     *timeout,
		MaxFacets:          *maxFacets,
		NodeLimit:          *nodeLimit,
		JobDir:             *jobDir,
		MaxJobs:            *maxJobs,
		JobQueue:           *jobQueue,
		JobRetention:       *jobRetention,
		JobTimeout:         *jobTimeout,
		JobCheckpointEvery: *jobCkptEvery,
		Cluster:            clusterCfg,
		DistThreshold:      *distThreshold,
		DistLease:          *distLease,
		Tracker:            tracker,
		Log:                logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}

	return serveUntilSignal(*addr, srv.Handler(), srv.Abort, srv.Close, *drainTimeout, logger,
		fmt.Sprintf("mode=%s store=%q jobs=%q", *mode, *storeDir, *jobDir), ready)
}

// serveUntilSignal serves h on addr until SIGINT or SIGTERM, then drains
// it: the listener stops accepting and in-flight requests get up to
// drain to finish. Past that deadline it calls abort (if non-nil) to
// cancel the in-flight computes, which unwind at their next shard
// boundary, and closes the listener hard. It then calls closeFn. detail
// tags the "listening on" line, and ready (optional, for tests) receives
// the bound address. The result is the exit code: 0 on a clean drain,
// else 1.
func serveUntilSignal(addr string, h http.Handler, abort func(), closeFn func() error,
	drain time.Duration, logger *log.Logger, detail string, ready chan<- net.Addr) int {
	// Install the signal handler before the listener exists: a SIGTERM
	// arriving the instant the port is bound must start a drain, not kill
	// the process with jobs mid-checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		closeFn()
		return 1
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	logger.Printf("listening on %s (%s)", ln.Addr(), detail)
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "serve:", err)
		closeFn()
		return 1
	case <-ctx.Done():
	}
	stop()

	logger.Printf("signal received; draining in-flight requests (up to %s)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	clean := true
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		if abort != nil {
			logger.Printf("drain deadline exceeded (%v); cancelling in-flight computes", err)
			abort()
		} else {
			logger.Printf("drain deadline exceeded (%v); closing", err)
		}
		httpSrv.Close()
		clean = false
	}
	if err := closeFn(); err != nil {
		logger.Printf("close: %v", err)
		clean = false
	}
	if !clean {
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

// splitURLs parses a comma-separated URL list, trimming blanks.
func splitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimRight(part, "/"))
		}
	}
	return out
}

func contains(list []string, want string) bool {
	for _, v := range list {
		if v == want {
			return true
		}
	}
	return false
}
