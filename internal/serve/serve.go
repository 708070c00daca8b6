// Package serve implements the long-running query service over the
// toolkit's engines: pseudosphere and round-complex construction
// (Lemmas 11/14/19 via the unified round operator), Betti/connectivity
// verdicts (Lemmas 12/16/17/21), and decision-map searches (Theorems 5/7)
// as HTTP/JSON endpoints. Every result is a pure function of a small
// parameter tuple, so the service is a cache stack:
//
//	response singleflight (concurrent identical requests coalesce)
//	→ content-addressed disk store (internal/store; survives restarts)
//	→ in-memory singleflight homology.Cache with the store as Backing
//	→ the engines, under a bounded admission-control pool
//
// Cache hits are served before admission, so a saturated pool still
// answers warm traffic; misses pay one pool slot and are priced upfront,
// a construction by its model's exact arithmetic facet count (modelspec)
// and a decision search by task.SearchSpaceLog2, so oversized requests
// are refused in microseconds. A miss's compute runs under a context that
// is cancelled (flowing into the ...Ctx enumeration variants) when the
// last request waiting on it disconnects or times out — so coalesced
// followers are not failed by the leader's disconnect, and an abandoned
// enumeration still unwinds promptly.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pseudosphere/internal/cluster"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/store"
	"pseudosphere/internal/task"
)

// ClusterConfig makes a Server one replica of a fleet. Peers is every
// replica's base URL (including this one); Self is this replica's entry
// in that list, as the ring knows it. When set, the server mounts the
// peer KV endpoint over its local store, wraps the store in the
// cluster's read-through backend, and delegates cold owned-elsewhere
// requests to the key's owner so the fleet shares one singleflight per
// key.
type ClusterConfig struct {
	Self   string
	Peers  []string
	VNodes int // per-replica virtual nodes (0 = cluster.DefaultVirtualNodes)
}

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// StoreDir roots the disk store; empty disables cross-restart caching.
	StoreDir string
	// Workers is the number of claim loops each side of a distributed
	// build runs (0 = NumCPU). Every in-process computation (construction,
	// reduction, decision search) runs on one goroutine whatever its
	// value.
	Workers int
	// Pool bounds concurrent computes (0 = NumCPU); Queue bounds how many
	// more may wait for a slot (0 = 4*Pool, negative = none).
	Pool  int
	Queue int
	// RequestTimeout is the per-request compute deadline (0 = 60s); a
	// request may shorten it with timeout_ms but never extend it.
	RequestTimeout time.Duration
	// MaxFacets rejects construction requests whose estimated facet
	// insertions exceed it (0 = 8 million).
	MaxFacets int64
	// MaxSearchBits rejects decision searches whose candidate space
	// exceeds 2^MaxSearchBits (0 = 4096).
	MaxSearchBits float64
	// NodeLimit is the decision search node budget (0 = 20 million).
	NodeLimit int64
	// JobDir enables the async job API (/v1/jobs), rooting its persistent
	// records and checkpoint logs; it requires StoreDir, because job
	// results are persisted in the response store. Empty disables jobs.
	JobDir string
	// MaxJobs bounds concurrently running jobs (0 = 1); JobQueue bounds
	// jobs waiting behind them (0 = 64).
	MaxJobs  int
	JobQueue int
	// JobRetention keeps terminal job records pollable before they are
	// swept (0 = 1h). JobTimeout caps one run attempt (0 = none — jobs
	// exist precisely to outlive the request deadline).
	JobRetention time.Duration
	JobTimeout   time.Duration
	// JobCheckpointEvery is how many completed construction shards are
	// batched per checkpoint flush (0 = 8). Smaller loses less work to a
	// kill; larger amortizes the fsync better.
	JobCheckpointEvery int
	// Cluster enrolls this server as a replica of a fleet (nil: standalone).
	// It requires StoreDir — the fleet protocol is about sharing that tier.
	Cluster *ClusterConfig
	// DistThreshold enables distributed construction on a fleet replica:
	// builds whose facet estimate meets it are sharded across the fleet's
	// claim/complete work-stealing protocol instead of running on this
	// replica's pool alone (0 disables; requires Cluster). DistLease is
	// the shard-range lease deadline — how long a dead worker can stall
	// its claimed ranges before they are stolen back (0 = 10s).
	DistThreshold int64
	DistLease     time.Duration
	// Tracker receives request/latency/cache metrics (nil: a fresh one).
	Tracker *obs.Tracker
	// Log receives operational lines (nil: the standard logger).
	Log *log.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Pool <= 0 {
		c.Pool = runtime.NumCPU()
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Pool
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxFacets <= 0 {
		c.MaxFacets = 8_000_000
	}
	if c.MaxSearchBits <= 0 {
		c.MaxSearchBits = 4096
	}
	if c.NodeLimit <= 0 {
		c.NodeLimit = 20_000_000
	}
	if c.JobCheckpointEvery <= 0 {
		c.JobCheckpointEvery = 8
	}
	if c.Tracker == nil {
		c.Tracker = obs.NewTracker()
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
}

// Server is the query service. Create with New, mount Handler, and Close
// on shutdown after the HTTP server has drained.
type Server struct {
	cfg     Config
	tracker *obs.Tracker
	store   store.Backend // nil when disk caching is disabled
	betti   *homology.Cache
	engine  *homology.Engine
	flights *flightGroup
	adm     *admission
	mux     *http.ServeMux
	jobs    *jobs.Manager // nil when the job API is disabled

	// Fleet state, nil/empty when standalone: ring maps canonical keys to
	// owner replicas, rt is the read-through view of the store (also
	// reachable as s.store), and self is this replica's ring identity.
	ring *cluster.Ring
	rt   *cluster.ReadThrough
	self string
	dist *distState // distributed construction; nil unless DistThreshold set

	// hardStop cancels every in-flight compute when a drain deadline is
	// exceeded; see Abort.
	hardStop context.Context
	abort    context.CancelFunc

	closeOnce sync.Once
}

// New builds a Server from cfg, opening the disk store when configured.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		tracker: cfg.Tracker,
		betti:   homology.NewCache(),
		flights: newFlightGroup(),
		adm:     newAdmission(cfg.Pool, cfg.Queue),
		mux:     http.NewServeMux(),
	}
	s.hardStop, s.abort = context.WithCancel(context.Background())
	if cfg.Cluster != nil && cfg.StoreDir == "" {
		return nil, errors.New("serve: Cluster requires StoreDir (the fleet shares the disk tier)")
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if cc := cfg.Cluster; cc != nil {
			s.ring = cluster.NewRing(cc.VNodes)
			s.ring.Add(cc.Peers...)
			s.self = cc.Self
			s.rt = cluster.NewReadThrough(st, s.ring, cc.Self, s.tracker)
			s.store = s.rt
			// Peers read and push through the raw disk tier — handing them
			// the read-through view would bounce a miss back and forth.
			s.mux.Handle(cluster.KVPath, cluster.KVHandler(st))
			if cfg.DistThreshold > 0 {
				s.setupDist()
			}
		}
		s.betti.SetBacking(bettiBacking{st: s.store})
	}
	s.engine = homology.NewEngine(1, s.betti)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /v1/pseudosphere", s.handleEndpoint("pseudosphere"))
	s.mux.HandleFunc("GET /v1/rounds", s.handleEndpoint("rounds"))
	s.mux.HandleFunc("GET /v1/connectivity", s.handleEndpoint("connectivity"))
	s.mux.HandleFunc("GET /v1/decision", s.handleEndpoint("decision"))
	// POST variants carry an inline model spec in the body; they compile
	// to the same canonical keys, so they share the GET spine's cache
	// entries, singleflights, and ring placement.
	s.mux.HandleFunc("POST /v1/rounds", s.handleEndpointPost("rounds"))
	s.mux.HandleFunc("POST /v1/connectivity", s.handleEndpointPost("connectivity"))
	s.mux.HandleFunc("POST /v1/decision", s.handleEndpointPost("decision"))

	// The job manager starts last: its dispatcher may immediately resume
	// persisted jobs, which need the engine and store above.
	if cfg.JobDir != "" {
		if s.store == nil {
			s.shutdownOnError()
			return nil, errors.New("serve: JobDir requires StoreDir (job results persist in the response store)")
		}
		m, err := jobs.Open(jobs.Config{
			Dir:           cfg.JobDir,
			MaxConcurrent: cfg.MaxJobs,
			MaxQueue:      cfg.JobQueue,
			Retention:     cfg.JobRetention,
			Timeout:       cfg.JobTimeout,
			Prepare:       s.jobPrepare,
			Run:           s.jobRun,
			Log:           cfg.Log,
		})
		if err != nil {
			s.shutdownOnError()
			return nil, err
		}
		s.jobs = m
		s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
		s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	}
	return s, nil
}

// shutdownOnError unwinds the partially built server when New fails after
// starting its background work.
func (s *Server) shutdownOnError() {
	s.closeDist()
	if s.rt != nil {
		s.rt.Close()
	}
	s.abort()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Abort cancels every in-flight compute; call it only when a graceful
// drain has exceeded its deadline.
func (s *Server) Abort() { s.abort() }

// Close logs final cache statistics and, on a fleet replica, flushes the
// pending cross-replica owner pushes. Call after the HTTP server has
// drained; the server must not receive requests afterwards. Close is
// idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// The job manager goes first: it cancels running jobs (which flush
		// their checkpoints and revert to queued for the next start) and its
		// Run hook writes the store directly, so nothing below depends on it.
		if s.jobs != nil {
			s.jobs.Close()
		}
		// The dist tier follows: the job close above unwound any coordinator
		// Run, and the worker pool's claim loops stop here before the store
		// tier they report through goes away.
		s.closeDist()
		// Responses persist synchronously inside their flight, so by the
		// time the HTTP server has drained every put has landed in the
		// read-through; its Close flushes the remaining owner pushes.
		if s.rt != nil {
			s.rt.Close()
		}
		s.abort()
		if s.store != nil {
			hits, misses, puts, evictions := s.store.Stats()
			s.cfg.Log.Printf("serve: store closed (hits=%d misses=%d puts=%d evictions=%d)", hits, misses, puts, evictions)
		}
		bh, bm, entries := s.betti.Stats()
		s.cfg.Log.Printf("serve: betti cache closed (mem hits=%d misses=%d backing hits=%d entries=%d)", bh, bm, s.betti.BackingHits(), entries)
	})
	return nil
}

// persist writes a computed response to the store synchronously, INSIDE
// the response flight: the flight entry is deleted the moment the
// compute returns, so a request arriving right after the last waiter
// departs must find the store warm — with a write-behind gap there it
// starts a duplicate compute (observed as 2x computes under concurrent
// identical load on one CPU). The put is a local temp+rename of
// already-marshalled bytes, noise next to the compute that produced
// them; cross-replica owner pushes stay write-behind inside the cluster
// backend, which drops (and counts) pushes arriving after its Close.
func (s *Server) persist(key string, body []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, body); err != nil {
		s.cfg.Log.Printf("serve: store put: %v", err)
	}
}

// bettiBacking adapts the disk store to the homology cache's Backing
// seam: Betti vectors keyed by complex canonical hash survive restarts
// and are shared across every endpoint and parameter tuple that builds a
// hash-identical complex.
type bettiBacking struct{ st store.Backend }

func (b bettiBacking) Get(key string) ([]int, bool) {
	raw, ok := b.st.Get("betti-z2|" + key)
	if !ok {
		return nil, false
	}
	var betti []int
	if err := json.Unmarshal(raw, &betti); err != nil {
		return nil, false
	}
	return betti, true
}

func (b bettiBacking) Put(key string, betti []int) {
	raw, err := json.Marshal(betti)
	if err != nil {
		return
	}
	b.st.Put("betti-z2|"+key, raw) //nolint:errcheck // best-effort persistence
}

// requestTimeout reads a request's compute deadline from its query
// values: the server deadline, or the shorter one timeout_ms asks for.
func (s *Server) requestTimeout(q url.Values) (time.Duration, error) {
	timeout := s.cfg.RequestTimeout
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return 0, badRequest("timeout_ms=%q is not a positive integer", raw)
		}
		// Compare in milliseconds: a large ms would overflow the Duration
		// product and start the compute already expired.
		if int64(ms) < timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return timeout, nil
}

// requestCtx derives the compute context: the client's context (so a
// disconnect cancels the enumeration), capped by timeout, additionally
// cancelled by Abort, and carrying the metrics tracker for the engines'
// obs counters.
func (s *Server) requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := obs.WithTracker(r.Context(), s.tracker)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	stop := context.AfterFunc(s.hardStop, cancel)
	return ctx, func() { stop(); cancel() }
}

// serveQuery is the shared endpoint spine: metrics, the response cache
// stack, admission, compute, persistence, and error mapping. key is the
// canonical identity of the request, and compute produces the response
// value to marshal. q holds the request's URL query values; timeout_ms is
// read from it before the response store, so a malformed value gets 400
// on a warm key as on a cold one.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, endpoint, key string, q url.Values, compute func(ctx context.Context) (any, error)) {
	startAt := time.Now()
	s.tracker.Counter("requests").Add(1)
	s.tracker.Counter("requests." + endpoint).Add(1)
	defer func() {
		s.tracker.Counter("latency_us." + endpoint).Add(uint64(time.Since(startAt).Microseconds()))
		s.tracker.Counter("latency_count." + endpoint).Add(1)
	}()
	timeout, err := s.requestTimeout(q)
	if err != nil {
		s.fail(w, r, endpoint, err)
		return
	}

	respKey := "resp|" + endpoint + "|" + key
	if s.store != nil {
		if body, ok := s.store.Get(respKey); ok {
			s.tracker.Counter("resp_store_hits").Add(1)
			writeJSONBytes(w, "hit", body)
			return
		}
	}
	s.tracker.Counter("resp_store_misses").Add(1)

	// Fleet replicas delegate a cold key they do not own to its owner, so
	// concurrent cold requests landing on different replicas still
	// collapse in ONE refcounted singleflight — the owner's. The hop
	// header caps forwarding at one hop: the router and delegating
	// replicas both set it, so a forwarded request computes where it
	// lands (the failover path when the owner is dying between checks).
	if s.ring != nil && r.Header.Get(hopHeader) == "" {
		if owner := s.ring.Owner(respKey); owner != "" && owner != s.self {
			if s.delegate(w, r, owner) {
				return
			}
			// Owner unreachable: compute here; persist() will push the
			// result to wherever the key belongs.
		}
	}

	ctx, cancel := s.requestCtx(r, timeout)
	defer cancel()

	body, followed, err := s.flights.do(ctx, respKey, func(cctx context.Context) ([]byte, error) {
		if err := s.adm.acquire(cctx); err != nil {
			return nil, err
		}
		defer s.adm.release()
		s.tracker.Counter("computes").Add(1)
		v, err := compute(cctx)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		s.persist(respKey, body)
		return body, nil
	})
	if err != nil {
		s.fail(w, r, endpoint, err)
		return
	}
	status := "miss"
	if followed {
		s.tracker.Counter("resp_flight_waits").Add(1)
		status = "flight"
	}
	writeJSONBytes(w, status, body)
}

// fail maps compute errors to HTTP statuses and counters.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, endpoint string, err error) {
	var br badRequestError
	var me *modelspec.Error
	switch {
	case errors.As(err, &br), errors.As(err, &me):
		s.tracker.Counter("bad_requests").Add(1)
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, errSaturated):
		s.tracker.Counter("rejected_saturated").Add(1)
		_, queued := s.adm.load()
		setRetryAfter(w, queued, int64(s.cfg.Pool))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errBudget):
		s.tracker.Counter("rejected_budget").Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, task.ErrSearchLimit):
		s.tracker.Counter("rejected_budget").Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.tracker.Counter("timeouts").Add(1)
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// Client went away (or the drain deadline aborted us): count the
		// cancellation and write the status for whoever may still read it.
		s.tracker.Counter("cancelled").Add(1)
		writeError(w, statusClientClosedRequest, err)
	default:
		s.tracker.Counter("errors").Add(1)
		s.cfg.Log.Printf("serve: %s %s: %v", endpoint, r.URL.RawQuery, err)
		writeError(w, http.StatusInternalServerError, err)
	}
}

// statusClientClosedRequest is nginx's conventional code for a client
// that disconnected before the response was ready.
const statusClientClosedRequest = 499

// maxRetryAfter caps the 429 back-off hint; past this, more waiting says
// "shed elsewhere", not "queue deeper".
const maxRetryAfter = 30

// setRetryAfter writes a Retry-After hint that scales with how deep the
// backlog actually is: an idle queue says retry in a second, a queue k
// pool-widths deep says wait ~k more seconds — each pool-width of queue
// is roughly one extra drain cycle. Both 429 sites (compute admission
// and the job queue) share this, so clients see one consistent
// back-pressure dialect.
func setRetryAfter(w http.ResponseWriter, queued, slots int64) {
	if slots <= 0 {
		slots = 1
	}
	secs := 1 + queued/slots
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// errBudget marks admission rejections of oversized requests.
var errBudget = errors.New("request exceeds the service work budget")

func overBudget(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBudget, fmt.Sprintf(format, args...))
}

func writeJSONBytes(w http.ResponseWriter, cacheStatus string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client disconnects are expected
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

// handleHealthz answers readiness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
}

// handleMetrics reports the service counters plus the cache-stack and
// admission state as one JSON document; the CI smoke test and the bench/
// workloads read hit counters here.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	type cacheStats struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Puts      uint64 `json:"puts,omitempty"`
		Evictions uint64 `json:"evictions,omitempty"`
		Waits     uint64 `json:"waits,omitempty"`
		Backing   uint64 `json:"backing_hits,omitempty"`
		Entries   int    `json:"entries"`
	}
	type jobStats struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
		Total   int `json:"total"`
	}
	type clusterInfo struct {
		Self  string   `json:"self"`
		Peers []string `json:"peers"`
	}
	out := struct {
		Counters   map[string]uint64 `json:"counters"`
		Store      *cacheStats       `json:"store,omitempty"`
		BettiCache cacheStats        `json:"betti_cache"`
		Running    int64             `json:"computes_running"`
		Queued     int64             `json:"computes_queued"`
		Jobs       *jobStats         `json:"jobs,omitempty"`
		Cluster    *clusterInfo      `json:"cluster,omitempty"`
	}{Counters: s.tracker.Counters()}
	if s.ring != nil {
		out.Cluster = &clusterInfo{Self: s.self, Peers: s.ring.Nodes()}
	}
	if s.jobs != nil {
		q, r, t := s.jobs.Stats()
		out.Jobs = &jobStats{Queued: q, Running: r, Total: t}
	}
	if s.store != nil {
		h, m, p, e := s.store.Stats()
		out.Store = &cacheStats{Hits: h, Misses: m, Puts: p, Evictions: e, Entries: s.store.Len()}
	}
	bh, bm, entries := s.betti.Stats()
	out.BettiCache = cacheStats{Hits: bh, Misses: bm, Waits: s.betti.Waits(), Backing: s.betti.BackingHits(), Entries: entries}
	out.Running, out.Queued = s.adm.load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}
