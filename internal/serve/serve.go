// Package serve turns the simulator into a production-shaped HTTP service:
// simulation requests become bounded, deduplicated, cancellable work items.
//
// The serving discipline, in one paragraph: every POST /v1/runs is admitted
// through a per-client token-bucket quota onto a bounded fair queue feeding
// a fixed worker pool, or refused immediately with 429 + Retry-After — the
// server sheds load instead of buffering it without bound, and one hot
// tenant can neither starve the dequeue order (weighted round-robin across
// clients) nor flood admission (quota). Each admitted request runs under
// its own wall-clock deadline (gpu.RunContext stops the engine within one
// chunk of simulated cycles). Identical requests collapse onto a single
// simulation three times over: a lock-free fast path joins repeat traffic
// onto the live jobState in one transition (no pool lock, no queue slot),
// the job table deduplicates admissions, and harness.Runner's singleflight
// map deduplicates executions. Completed results accumulate in a
// write-behind coalescer and persist to the crash-safe store as one batched
// fsync'd commit per flush, so repeat traffic — across restarts too — is a
// disk read, never a simulation. SIGTERM triggers a graceful drain: stop
// accepting, finish (or, past the drain timeout, cancel) everything in
// flight, flush the coalescer, exit clean.
//
// Endpoints:
//
//	POST /v1/runs        submit a RunSpec; sync by default, 202 + id when async
//	POST /v1/runs/batch  submit a JSON array of RunSpecs in one round trip;
//	                     the response is the matching array of run responses
//	                     (admission batching for high-throughput clients)
//	GET  /v1/runs/{id}   durable job status: pending states in memory,
//	                     completed results from the store
//	GET  /healthz        liveness (200 while the process runs)
//	GET  /readyz         readiness (200 only with queue headroom, 503 draining)
//	GET  /metrics        text exposition: queue depth, in-flight workers,
//	                     store hits, simulated count, latency quantiles
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/store"
)

// maxBatch caps one POST /v1/runs/batch submission.
const maxBatch = 256

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of simulations executed concurrently
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the wait queue behind the workers; a request
	// arriving with the queue full is refused with 429 (default 64).
	QueueDepth int
	// MaxScale is the admission ceiling for RunSpec.Scale (default 1.0).
	MaxScale float64
	// RequestTimeout is the default — and the cap — for each request's
	// wall-clock deadline (default 60s).
	RequestTimeout time.Duration
	// Store, if non-nil, is the durable result tier shared by every runner.
	Store *store.Store
	// Verbose, if set, receives progress lines.
	Verbose func(string)

	// QuotaRPS is the per-client admission rate (requests per second)
	// enforced by a token bucket ahead of the queue; a client submitting
	// faster is shed with 429 + Retry-After before it can consume a queue
	// slot (0 = no quota).
	QuotaRPS float64
	// QuotaBurst is the token-bucket depth (default: one second of QuotaRPS,
	// at least 1).
	QuotaBurst int
	// ClientHeader names the request header carrying the client key used
	// for quotas and fair queueing (default "X-Client-ID"; requests without
	// it key by remote host).
	ClientHeader string
	// ClientWeights assigns fair-dequeue weights per client key; a weight-w
	// client drains up to w queued requests per round-robin turn (absent or
	// < 1 = weight 1).
	ClientWeights map[string]int
	// PerClientQueue caps one client's share of the wait queue; its excess
	// is shed with 429 while other clients still have headroom
	// (0 = QueueDepth, i.e. no per-client cap).
	PerClientQueue int

	// FlushInterval is the write-behind cadence of the store coalescer:
	// completed results accumulate in memory and commit as one batched
	// fsync'd write per interval (default 100ms). Server.Drain always runs
	// a final flush, so a graceful shutdown loses nothing.
	FlushInterval time.Duration
	// FlushHighWater forces an immediate flush when this many records are
	// pending (default 64).
	FlushHighWater int

	// Spans enables request-scoped observability: the lifecycle span
	// recorder (GET /v1/spans), the X-Getm-Timings response header, and
	// sim-level trace capture for executed runs (a bounded LRU of
	// trace.Recorders keyed by run id, merged into the /v1/spans Perfetto
	// export). Disabled — the default — the serve hot path pays one pointer
	// compare per emit site and allocates zero extra bytes per request;
	// results are identical either way (tracing is cycle-neutral by the
	// trace layer's contract).
	Spans bool
	// SpanRing is the lifecycle ring capacity in records, rounded up to a
	// power of two (default 16384). When the ring fills, the oldest records
	// are overwritten.
	SpanRing int
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server's mux.
	// Off by default: profiling endpoints are a diagnostic surface, not part
	// of the serving API.
	Pprof bool

	// SLOP99 is the p99 run-latency objective the burn-rate counters are
	// derived from: every run slower than this increments
	// getm_serve_slo_slow_requests_total (default 250ms — the load-gate
	// target).
	SLOP99 time.Duration
	// SLOShedTarget is the shed-ratio objective exposed as a gauge next to
	// the shed counters, so a dashboard computes burn rate without
	// hard-coding the target (default 0.01).
	SLOShedTarget float64

	// Role selects the node's cluster duty. "" and RoleWorker execute
	// submissions locally; RoleCoordinator routes every submission across
	// Peers by rendezvous hash of the store key and never simulates itself.
	Role string
	// Peers lists the base URLs of the other cluster nodes. On a
	// coordinator they are the routing targets; on a worker they are the
	// store-sync sources consulted (via GET /v1/store/{id}) when a result
	// misses the local store. Empty disables clustering entirely.
	Peers []string
	// HedgeDelay is the fixed wait before a slow forwarded run is hedged to
	// the next-ranked peer (coordinator only). 0 — the default — derives the
	// delay from the observed forward-latency p99, falling back to 50ms
	// until enough samples exist.
	HedgeDelay time.Duration
	// ProbeInterval is the peer health-probe cadence (default 250ms): each
	// tick GETs every peer's /readyz and refreshes its liveness and queue
	// headroom, the inputs to routing and work-stealing.
	ProbeInterval time.Duration
}

// Cluster roles accepted by Config.Role.
const (
	RoleWorker      = "worker"
	RoleCoordinator = "coordinator"
)

// Validate rejects cluster configurations that cannot work: an unknown
// role, a coordinator with nobody to route to, or peer URLs that do not
// parse. CLIs call it before New so misconfiguration is a startup error,
// not a serving-time surprise.
func (c Config) Validate() error {
	switch c.Role {
	case "", RoleWorker, RoleCoordinator:
	default:
		return fmt.Errorf("unknown role %q (want %q or %q)", c.Role, RoleWorker, RoleCoordinator)
	}
	if c.Role == RoleCoordinator && len(c.Peers) == 0 {
		return errors.New("role coordinator requires at least one peer")
	}
	for _, p := range c.Peers {
		u, err := url.Parse(p)
		if err != nil {
			return fmt.Errorf("peer %q: %w", p, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("peer %q: want an http(s) base URL like http://host:port", p)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ClientHeader == "" {
		c.ClientHeader = "X-Client-ID"
	}
	if c.SLOP99 <= 0 {
		c.SLOP99 = 250 * time.Millisecond
	}
	if c.SLOShedTarget <= 0 {
		c.SLOShedTarget = 0.01
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	return c
}

// jobStatus is the lifecycle of one admitted run.
type jobStatus int32

const (
	statusQueued jobStatus = iota
	statusRunning
	statusDone
	statusFailed
)

func (s jobStatus) String() string {
	switch s {
	case statusQueued:
		return "queued"
	case statusRunning:
		return "running"
	case statusDone:
		return "done"
	default:
		return "failed"
	}
}

// jobState is the unit the queue carries and the job table tracks: one
// distinct request, shared by every client that submitted it.
type jobState struct {
	id     string
	spec   RunSpec
	client string // first submitter's client key (fair-queue lane)

	// queuedAt stamps admission; the worker derives queue wait from it.
	queuedAt time.Time

	// done closes when the run finishes (either way); the fields below are
	// written before the close and read-only after it.
	done      chan struct{}
	m         *stats.Metrics
	err       error
	elapsedMS int64
	source    string // cache | store | run

	// Per-stage wall time (µs), the request-scoped breakdown behind
	// X-Getm-Timings and GET /v1/runs/{id}/timings. queueUS and simUS are
	// written by the executing worker before done closes; persistUS is
	// atomic because the persist hook resolves jobs by store key, and a
	// budgeted sibling completing within budget may attribute its persist to
	// the unbudgeted jobState concurrently.
	queueUS   int64
	simUS     int64
	persistUS atomic.Int64

	// status is atomic so status reads never touch the pool lock.
	status atomic.Int32

	// rendered caches the run's JSON response bytes once it completes
	// successfully; repeat traffic writes the cached bytes instead of
	// re-encoding the metrics per request.
	rendered atomic.Pointer[[]byte]
}

func (js *jobState) setStatus(s jobStatus) { js.status.Store(int32(s)) }
func (js *jobState) getStatus() jobStatus  { return jobStatus(js.status.Load()) }

// failed reports whether the job finished with an error. Admission never
// joins such a job: failures from per-request deadlines are timing-dependent,
// so a fresh submission deserves a fresh attempt.
func (js *jobState) failed() bool {
	select {
	case <-js.done:
		return js.err != nil
	default:
		return false
	}
}

// Response is the JSON shape of both POST and GET run endpoints. In a
// batch response, shed or invalid submissions carry Status "shed" or
// "invalid" with the reason in Error.
type Response struct {
	ID        string         `json:"id,omitempty"`
	Status    string         `json:"status"`
	Source    string         `json:"source,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms,omitempty"`
	Error     string         `json:"error,omitempty"`
	Metrics   *stats.Metrics `json:"metrics,omitempty"`
}

// Server is the HTTP front end. Create with New, serve via http.Server
// (Server implements http.Handler), stop with Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux

	pool   *pool
	met    *metricsSet
	coal   *coalescer // nil without a store
	quotas *quotas    // nil without a quota

	// cluster holds peer state — health, headroom, routing, hedging — and is
	// nil unless Config.Peers is non-empty.
	cluster *cluster

	// spans is the lifecycle recorder; nil when disabled, and every emit
	// site guards with exactly one pointer compare (Server.span).
	spans *spanRecorder
	// traces retains sim recorders for recently executed runs (only with
	// spans enabled).
	traces *traceKeeper

	// idCache maps a spec's identity (spec.cacheKey) to its run id so the
	// admission fast path never recomputes the content address — the
	// SHA-256 over the canonical config — per request.
	idCache sync.Map

	// execute runs one admitted job; tests substitute a stub.
	execute func(ctx context.Context, js *jobState) (*stats.Metrics, string, error)
}

// New builds a server (workers started immediately).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), mux: http.NewServeMux(), met: newMetricsSet()}
	s.met.sloP99 = s.cfg.SLOP99
	s.execute = s.simulate
	if s.cfg.Store != nil {
		s.coal = newCoalescer(s.cfg.Store, s.cfg.FlushInterval, s.cfg.FlushHighWater, s.cfg.Verbose)
		s.coal.onFlush = s.observeFlush
	}
	if s.cfg.Spans {
		s.spans = newSpanRecorder(s.cfg.SpanRing)
		s.traces = newTraceKeeper()
	}
	s.quotas = newQuotas(s.cfg.QuotaRPS, s.cfg.QuotaBurst)
	s.pool = newPool(s)
	if len(s.cfg.Peers) > 0 {
		s.cluster = newCluster(s)
		if s.cfg.Store != nil {
			// Store sync: a local store miss transparently fetches the record
			// from the peer that owns (or executed) the cell and writes it
			// through, so any node answers GET /v1/runs/{id} and no node ever
			// re-simulates a cell the cluster already paid for.
			s.cfg.Store.SetFill(s.cluster.fill)
		}
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/runs/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/timings", s.handleTimings)
	s.mux.HandleFunc("GET /v1/store/{key}", s.handleStoreRecord)
	s.mux.HandleFunc("GET /v1/spans", s.handleSpans)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// observeFlush is the coalescer's commit hook: it feeds the flush-latency
// histogram and (when enabled) emits a flush lifecycle span.
func (s *Server) observeFlush(d time.Duration, records int) {
	s.met.observeFlush(d)
	s.span(stageFlush, "", "", uint64(d.Microseconds()), uint64(records))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully stops the service: new submissions are refused with 503,
// queued and in-flight runs get until timeout to finish, anything still
// running past it is canceled (the engines stop within one chunk of cycles),
// the worker pool exits, and the write-behind coalescer runs its final flush
// — every acknowledged result is durable before Drain returns. Drain
// returns nil when everything completed in time and an error describing the
// cut-short work otherwise; either way the pool is fully stopped and the
// store flushed on return.
func (s *Server) Drain(timeout time.Duration) error {
	s.log("draining: refusing new work, waiting up to " + timeout.String())
	if s.cluster != nil {
		s.cluster.close()
	}
	err := s.pool.drain(timeout)
	if s.coal != nil {
		if ferr := s.coal.close(); ferr != nil {
			err = errors.Join(err, ferr)
		}
	}
	return err
}

func (s *Server) log(msg string) {
	if s.cfg.Verbose != nil {
		s.cfg.Verbose(msg)
	}
}

// clientKey identifies the requesting tenant: the configured client header
// when present, else the remote host.
func (s *Server) clientKey(r *http.Request) string {
	if v := r.Header.Get(s.cfg.ClientHeader); v != "" {
		return v
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// screen is the first admission step of every submission, single or
// batched, executed here or forwarded: it applies the spec's zero-value
// sentinels, validates it, counts it under its policy label, and spends one
// of the client's quota tokens. A refusal is admitInvalid (err says why) or
// admitQuota (retry is the wait for the next token), already counted.
func (s *Server) screen(sp *RunSpec, client string) (admitOutcome, time.Duration, error) {
	sp.normalize()
	if err := sp.validate(s.cfg.MaxScale); err != nil {
		return admitInvalid, 0, err
	}
	s.met.policyRequest(sp.policyLabel())
	if s.quotas != nil {
		if ok, retry := s.quotas.allow(client, time.Now()); !ok {
			s.shed(client, 1)
			s.met.quotaRejected.Add(1)
			s.span(stageQuota, client, "", 0, 0)
			return admitQuota, retry, nil
		}
	}
	return admitOK, 0, nil
}

// place is the second admission step, for a screened spec this node
// executes. Repeat traffic whose id is cached joins its live (or successfully
// completed) job in one lock-free lookup — no pool lock, no queue slot, no
// key recomputation; everything else takes the pool's locked path. A refusal
// comes back already counted.
func (s *Server) place(sp RunSpec, client string) (*jobState, admitOutcome) {
	if id, ok := s.idCache.Load(sp.cacheKey()); ok {
		if js, ok := s.pool.lookup(id.(string)); ok && !js.failed() {
			s.met.deduped.Add(1)
			s.span(stageJoin, client, js.id, 0, 0)
			return js, admitOK
		}
	}
	js, o := s.pool.admit(sp, client)
	if o != admitOK {
		s.shed(client, 1)
	}
	return js, o
}

// shed counts n submissions from client turned away: by quota, queue
// pressure, drain, or a coordinator's unreachable workers.
func (s *Server) shed(client string, n int64) {
	s.met.rejected.Add(n)
	s.met.clientShed(client, n)
}

// refuse writes a single submission's refusal: the status code, the header
// telling the client when (Retry-After) or whether (Connection: close) to
// come back, and the error body. retry and err are screen's detail for
// admitQuota and admitInvalid.
func (s *Server) refuse(w http.ResponseWriter, o admitOutcome, retry time.Duration, err error) {
	switch o {
	case admitInvalid:
		writeError(w, http.StatusBadRequest, err)
	case admitQuota:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(retry)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("over per-client quota (%g req/s); retry later", s.cfg.QuotaRPS))
	case admitFull:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d waiting, %d running); retry later", s.cfg.QueueDepth, s.cfg.Workers))
	case admitClientFull:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("client backlog full (%d queued); retry later", s.pool.perClientCap()))
	case admitDraining:
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
	}
}

// refusedEntry renders a refused batch entry: "invalid" with the validation
// error, else "shed" with a short reason.
func refusedEntry(o admitOutcome, err error) []byte {
	resp := Response{Status: "shed"}
	switch o {
	case admitInvalid:
		resp = Response{Status: "invalid", Error: err.Error()}
	case admitQuota:
		resp.Error = "over per-client quota"
	case admitDraining:
		resp.Error = "server is draining"
	default: // admitFull, admitClientFull
		resp.Error = "queue full"
	}
	return marshalResponse(&resp)
}

// handleSubmit admits one run request: screen (validation, then quota), then
// a peer (on a coordinator) or place (the lock-free join of repeat traffic,
// else a bounded fair-queue slot), else a refusal.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.met.observeHTTP(time.Since(start)) }()
	s.met.requests.Add(1)
	client := s.clientKey(r)
	s.met.clientRequest(client, 1)
	s.span(stageReceive, client, "", 0, 0)
	var sp RunSpec
	if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if o, retry, err := s.screen(&sp, client); o != admitOK {
		s.refuse(w, o, retry, err)
		return
	}
	if s.routesRemotely(r) {
		s.cluster.forwardRun(w, r, sp, client, start)
		return
	}
	js, o := s.place(sp, client)
	if o != admitOK {
		s.refuse(w, o, 0, nil)
		return
	}
	s.finishSubmit(w, r, js, sp.Async, client, start)
}

// finishSubmit writes the submission response: 202 immediately when async,
// else the run's outcome once it completes (bounded by its own deadline
// inside the pool) or nothing if the client goes away first. An abandoned
// wait does not cancel the shared run — other clients may be waiting on the
// same jobState.
func (s *Server) finishSubmit(w http.ResponseWriter, r *http.Request, js *jobState, async bool, client string, start time.Time) {
	if async {
		writeStatusJSON(w, http.StatusAccepted, s.snapshot(js))
		s.span(stageRespond, client, js.id, uint64(time.Since(start).Microseconds()), 0)
		return
	}
	select {
	case <-js.done:
		if js.err != nil {
			writeStatusJSON(w, httpStatusFor(js.err), s.snapshot(js))
			return
		}
		if s.spans != nil {
			setTimingsHeader(w.Header(), js.queueUS, js.simUS, js.persistUS.Load())
		}
		s.writeDone(w, js)
		s.span(stageRespond, client, js.id, uint64(time.Since(start).Microseconds()), 0)
	case <-r.Context().Done():
		// Client disconnected; nothing useful to write.
	}
}

// setTimingsHeader writes the server-side stage breakdown (µs) so a load
// harness can put client-observed and server-reported latency side by side
// without a second request. Format: "queue=<µs>;sim=<µs>;persist=<µs>".
func setTimingsHeader(h http.Header, queueUS, simUS, persistUS int64) {
	h.Set("X-Getm-Timings",
		"queue="+strconv.FormatInt(queueUS, 10)+
			";sim="+strconv.FormatInt(simUS, 10)+
			";persist="+strconv.FormatInt(persistUS, 10))
}

// handleBatch is the admission-batching endpoint: one POST carries a JSON
// array of RunSpecs, the specs are admitted in one pass (sharing the quota,
// fast path, and fair queue of single submissions), the sync ones are
// awaited, and one response array comes back. N logical requests cost one
// HTTP round trip and — for repeat traffic — N lock-free joins. The
// X-Getm-Shed header counts the entries shed by quota or queue pressure so
// load generators can track shed rate without parsing the body.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.met.observeHTTP(time.Since(start)) }()
	s.met.batches.Add(1)
	var specs []RunSpec
	if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(specs) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(specs), maxBatch))
		return
	}
	s.met.requests.Add(int64(len(specs)))
	client := s.clientKey(r)
	s.met.clientRequest(client, int64(len(specs)))
	s.span(stageReceive, client, "", uint64(len(specs)), 0)
	if s.pool.draining.Load() {
		s.shed(client, int64(len(specs)))
		s.refuse(w, admitDraining, 0, nil)
		return
	}
	if s.routesRemotely(r) {
		s.cluster.forwardBatch(w, r, specs, client, start)
		return
	}

	// Admission pass: every spec gets either a jobState or a rendered
	// refusal.
	jobs := make([]*jobState, len(specs))
	entries := make([][]byte, len(specs))
	shed := 0
	for i := range specs {
		o, _, err := s.screen(&specs[i], client)
		if o == admitOK {
			jobs[i], o = s.place(specs[i], client)
		}
		if o != admitOK {
			entries[i] = refusedEntry(o, err)
			if o != admitInvalid {
				shed++
			}
		}
	}

	// Wait pass: sync entries block until their shared run completes; async
	// entries snapshot immediately.
	for i, js := range jobs {
		if js == nil || specs[i].Async {
			continue
		}
		select {
		case <-js.done:
		case <-r.Context().Done():
			return // client gone; nothing useful to write
		}
	}

	if s.spans != nil {
		// Per-stage maxima across the awaited jobs: the batch's critical
		// path, which is what the submitter actually waited on.
		var q, sim, per int64
		for i, js := range jobs {
			if js == nil || specs[i].Async {
				continue
			}
			q = max(q, js.queueUS)
			sim = max(sim, js.simUS)
			per = max(per, js.persistUS.Load())
		}
		setTimingsHeader(w.Header(), q, sim, per)
	}
	// Splice cached response bytes where available, so a batch of repeat
	// traffic costs memory copies, not JSON encoding.
	for i, js := range jobs {
		switch {
		case js == nil:
		case specs[i].Async:
			entries[i], _ = json.Marshal(s.snapshot(js))
		default:
			entries[i] = s.doneBytes(js)
		}
	}
	writeBatch(w, shed, entries)
	s.span(stageRespond, client, "", uint64(time.Since(start).Microseconds()), uint64(len(specs)))
}

// writeBatch writes a batch response: the X-Getm-Shed count, then the
// entries as one JSON array in submission order.
func writeBatch(w http.ResponseWriter, shed int, entries [][]byte) {
	w.Header().Set("X-Getm-Shed", strconv.Itoa(shed))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("["))
	for i, e := range entries {
		if i > 0 {
			w.Write([]byte(","))
		}
		if e == nil { // unreachable, but never render invalid JSON
			e = []byte(`{"status":"failed","error":"no response"}`)
		}
		w.Write(e)
	}
	w.Write([]byte("]\n"))
}

// handleStatus reports one run: live states from the job table (lock-free),
// completed unbudgeted runs durably from the store (so ids survive
// restarts), and — in a cluster — runs held by a peer. Every request-derived
// id is validated before it can reach a filesystem path: a malformed id is a
// clean 404, identical to an unknown one.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if js, ok := s.pool.lookup(id); ok {
		select {
		case <-js.done:
			if js.err != nil {
				// The job failed, not this request.
				writeStatusJSON(w, http.StatusOK, s.snapshot(js))
				return
			}
			s.writeDone(w, js)
		default:
			writeJSON(w, s.snapshot(js))
		}
		return
	}
	base, ok := parseRunID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run id %q", id))
		return
	}
	if s.cfg.Store != nil {
		if m, ok := s.cfg.Store.Get(base); ok {
			s.met.storeStatusHits.Add(1)
			writeJSON(w, Response{ID: id, Status: statusDone.String(), Source: "store", Metrics: m})
			return
		}
	}
	if s.routesRemotely(r) && s.cluster.proxyStatus(w, r, id) {
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown run id %q", id))
}

// Timings is the JSON shape of GET /v1/runs/{id}/timings: the per-stage
// wall-clock breakdown of one run this process executed. Stage timings live
// on the in-memory jobState, so ids served purely from the durable store 404
// here — the store holds results, not request histories.
type Timings struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Source    string `json:"source,omitempty"`
	QueueUS   int64  `json:"queue_us"`
	SimUS     int64  `json:"sim_us"`
	PersistUS int64  `json:"persist_us"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// handleTimings reports the per-stage breakdown for a run held in the job
// table. Pending runs report the stages reached so far (zeroes beyond).
func (s *Server) handleTimings(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js, ok := s.pool.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no stage timings for run id %q (not executed by this process)", id))
		return
	}
	t := Timings{ID: js.id, Status: js.getStatus().String(), PersistUS: js.persistUS.Load()}
	select {
	case <-js.done:
		t.Status = statusDone.String()
		if js.err != nil {
			t.Status = statusFailed.String()
		}
		t.Source = js.source
		t.QueueUS, t.SimUS, t.ElapsedMS = js.queueUS, js.simUS, js.elapsedMS
	default:
	}
	writeJSON(w, t)
}

// handleSpans exports the lifecycle span ring — plus the retained sim
// recorders — in the trace layer's format set (?format=perfetto|csv|text,
// default perfetto). 404 unless the server runs with spans enabled.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		writeError(w, http.StatusNotFound, errors.New("spans disabled (start the server with -spans)"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "perfetto"
	}
	var err error
	switch format {
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		err = s.writeSpansPerfetto(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		err = s.writeSpansCSV(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = s.writeSpansText(w)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want perfetto, csv, or text)", format))
		return
	}
	if err != nil {
		s.log("spans export: " + err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz flips to 503 when the queue has no headroom or the server is
// draining — the signal a load balancer uses to steer traffic away before
// requests start bouncing off 429s. The X-Getm-Headroom header carries the
// live queue headroom (slots left before shedding; 0 while draining) so a
// cluster coordinator can grade peers instead of just bisecting ready/not.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	draining := s.pool.draining.Load()
	headroom := s.pool.fq.capacity - s.pool.fq.len()
	if draining || headroom < 0 {
		headroom = 0
	}
	w.Header().Set(headerHeadroom, strconv.Itoa(headroom))
	switch {
	case draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case headroom == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "saturated")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleStoreRecord serves the raw, self-verifying record file for one store
// key — the cluster's store-sync source. Strictly local (Store.ReadRaw never
// consults the peer-fill path), so two nodes fetching from each other cannot
// recurse; a malformed key or absent record is a 404.
func (s *Server) handleStoreRecord(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, errors.New("no store configured"))
		return
	}
	raw, ok := s.cfg.Store.ReadRaw(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no record for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s)
}

// snapshot renders a job's current state (done fields are stable after the
// close; pending states read the atomic status).
func (s *Server) snapshot(js *jobState) Response {
	select {
	case <-js.done:
		resp := Response{ID: js.id, Status: statusDone.String(), Source: js.source, ElapsedMS: js.elapsedMS}
		if js.err != nil {
			resp.Status = statusFailed.String()
			resp.Error = js.err.Error()
		}
		if js.m != nil {
			resp.Metrics = js.m
			resp.Truncated = js.m.Truncated
		}
		return resp
	default:
		return Response{ID: js.id, Status: js.getStatus().String()}
	}
}

// doneBytes returns the rendered JSON for a successfully completed job,
// encoding it exactly once per job (repeat traffic gets the cached bytes).
func (s *Server) doneBytes(js *jobState) []byte {
	if bp := js.rendered.Load(); bp != nil {
		return *bp
	}
	resp := s.snapshot(js)
	b, err := json.Marshal(resp)
	if err != nil {
		return []byte(`{"status":"failed","error":"encode error"}`)
	}
	if js.err == nil {
		js.rendered.Store(&b)
	}
	return b
}

// writeDone writes a completed successful run: cached bytes when available.
func (s *Server) writeDone(w http.ResponseWriter, js *jobState) {
	b := s.doneBytes(js)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte("\n"))
}

// retryAfterSeconds estimates when a queue slot will free up: the drain time
// of the work actually waiting right now, at the recent mean latency. Live
// occupancy, not cfg.QueueDepth — a request shed by the per-client cap while
// the shared queue sits nearly empty should come back after the real backlog
// drains, not after a hypothetical full queue's worth. The result is clamped
// to at least one second — sub-second mean latencies must never produce
// "Retry-After: 0", which clients read as "retry immediately".
func (s *Server) retryAfterSeconds() int {
	meanMS := s.met.meanLatencyMS()
	if meanMS <= 0 {
		return 1
	}
	waiting := s.pool.fq.len() + 1 // +1: the slot this request would need
	return retryAfterSecs(time.Duration(float64(waiting) * meanMS / float64(s.cfg.Workers) * float64(time.Millisecond)))
}

// httpStatusFor maps a run error to a response code: a deadline/cancel is
// the request's fault (408), everything else a simulation failure (500).
func httpStatusFor(err error) int {
	if errors.Is(err, gpu.ErrCanceled) {
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, v any) {
	writeStatusJSON(w, http.StatusOK, v)
}

func writeStatusJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeStatusJSON(w, code, map[string]string{"error": err.Error()})
}
