// getm-serve exposes the simulator as an HTTP service with bounded
// concurrency, request deduplication, durable results, and graceful drain.
//
// Usage:
//
//	getm-serve [-addr 127.0.0.1:8344] [-workers N] [-queue 64] [-store DIR]
//	           [-max-scale 1.0] [-request-timeout 60s] [-drain-timeout 30s]
//	           [-quota-rps N] [-quota-burst N] [-client-header X-Client-ID]
//	           [-client-weights a=2,b=5] [-per-client-queue N]
//	           [-flush-interval 100ms] [-flush-highwater 64]
//	           [-spans] [-span-ring N] [-pprof] [-slo-p99 250ms]
//	           [-slo-shed 0.01] [-verbose]
//	           [-role worker|coordinator] [-peers URL,URL,...]
//	           [-hedge-delay D] [-probe-interval 250ms]
//
// POST /v1/runs accepts a JSON RunSpec (protocol, benchmark, scale, seed,
// conc, cores, cycle_budget, timeout_ms, async) and simulates it on a fixed
// worker pool behind a bounded weighted-fair wait queue; when the queue is
// full the request is refused with 429 and a Retry-After hint instead of
// buffering without bound. POST /v1/runs/batch takes a JSON array of specs
// in one round trip. Identical concurrent requests collapse onto one
// simulation, and with -store completed results accumulate in a write-behind
// coalescer and persist in batched fsync'd commits to a crash-safe store
// that answers repeat traffic — across restarts too — with a disk read.
//
// -quota-rps imposes a per-client token-bucket admission rate (clients are
// keyed by -client-header, falling back to remote host); -client-weights
// biases the fair dequeue order; -per-client-queue caps one client's share
// of the wait queue.
//
// GET /v1/runs/{id} reports a run durably (completed ids resolve from the
// store even after a restart). /healthz is liveness, /readyz flips to 503
// when the queue has no headroom or a drain is in progress, and /metrics is
// a Prometheus-style text exposition of the serving counters, per-stage
// latency summaries, per-client accounting, and SLO burn counters (poll it
// live with getm-top).
//
// -spans turns on request-scoped observability: every request leaves
// fixed-size lifecycle records (receive, quota, queue, dedupe, simulate,
// persist, flush, respond) exported via GET /v1/spans?format=perfetto|csv|
// text — the Perfetto document also embeds sim-level engine traces for
// recently executed runs, so a request span and the engine events it
// triggered share one timeline. Responses gain an X-Getm-Timings header
// (queue/sim/persist µs) and GET /v1/runs/{id}/timings reports the same
// breakdown. -pprof mounts the standard profiling endpoints.
//
// -role and -peers turn single servers into a sweep fabric. A coordinator
// (-role coordinator -peers http://w1:8344,http://w2:8344) executes nothing
// itself: every submission routes to the worker owning its content address
// under rendezvous hashing, steals to the next-ranked worker when the owner
// reports no queue headroom, and hedges a second request after -hedge-delay
// (0 derives the delay from the observed forward p99) with the loser
// canceled. Workers given -peers (their sibling workers) fill store misses
// from each other over GET /v1/store/{key}, so any node answers
// GET /v1/runs/{id} for any completed cell and a worker inheriting a dead
// peer's cells re-simulates only what no surviving store holds.
//
// SIGTERM or SIGINT triggers a graceful drain: new work is refused, in-flight
// runs get -drain-timeout to finish (then are canceled), and the process
// exits 0 if nothing was cut short.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"getm/internal/serve"
	"getm/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseWeights parses "-client-weights a=2,b=5" into a weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	w := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -client-weights entry %q (want client=weight)", pair)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad weight %q for client %q (want integer >= 1)", v, k)
		}
		w[k] = n
	}
	return w, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free one)")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "wait-queue depth before load shedding with 429")
	storeDir := fs.String("store", "", "persist results to (and serve repeats from) this directory")
	maxScale := fs.Float64("max-scale", 1.0, "largest workload scale a request may ask for")
	requestTimeout := fs.Duration("request-timeout", 60*time.Second, "default and cap for each request's wall-clock deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight runs")
	quotaRPS := fs.Float64("quota-rps", 0, "per-client admission rate limit in requests/sec (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 0, "per-client token-bucket burst (0 = one second of -quota-rps)")
	clientHeader := fs.String("client-header", "X-Client-ID", "request header naming the client for quotas and fair queueing")
	clientWeights := fs.String("client-weights", "", "fair-dequeue weights as client=weight pairs, e.g. batch=1,interactive=4")
	perClientQueue := fs.Int("per-client-queue", 0, "cap on one client's share of the wait queue (0 = no per-client cap)")
	flushInterval := fs.Duration("flush-interval", 100*time.Millisecond, "write-behind store flush cadence")
	flushHighWater := fs.Int("flush-highwater", 64, "pending results forcing an immediate store flush")
	spans := fs.Bool("spans", false, "record request lifecycle spans (GET /v1/spans, X-Getm-Timings) and sim traces for executed runs")
	spanRing := fs.Int("span-ring", 0, "lifecycle span ring capacity in records (0 = 16384; power of two)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	sloP99 := fs.Duration("slo-p99", 250*time.Millisecond, "p99 run-latency objective feeding the SLO burn counters")
	sloShed := fs.Float64("slo-shed", 0.01, "shed-ratio objective exposed for burn-rate dashboards")
	verbose := fs.Bool("verbose", false, "log progress lines to stderr")
	role := fs.String("role", "", "cluster role: worker or coordinator (empty = standalone)")
	peers := fs.String("peers", "", "comma-separated peer base URLs (coordinator: routing targets; worker: store-sync sources)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "coordinator hedge delay before retrying a slow forward (0 = derive from forward p99)")
	probeInterval := fs.Duration("probe-interval", 0, "peer health/headroom probe cadence (0 = 250ms)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	weights, err := parseWeights(*clientWeights)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxScale:       *maxScale,
		RequestTimeout: *requestTimeout,
		QuotaRPS:       *quotaRPS,
		QuotaBurst:     *quotaBurst,
		ClientHeader:   *clientHeader,
		ClientWeights:  weights,
		PerClientQueue: *perClientQueue,
		FlushInterval:  *flushInterval,
		FlushHighWater: *flushHighWater,
		Spans:          *spans,
		SpanRing:       *spanRing,
		Pprof:          *pprofOn,
		SLOP99:         *sloP99,
		SLOShedTarget:  *sloShed,
		Role:           *role,
		HedgeDelay:     *hedgeDelay,
		ProbeInterval:  *probeInterval,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	if *storeDir != "" {
		st := store.Open(*storeDir)
		if err := st.Degraded(); err != nil {
			fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
		}
		cfg.Store = st
	}
	if *verbose {
		cfg.Verbose = func(msg string) { fmt.Fprintln(stderr, msg) }
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	fmt.Fprintf(stderr, "listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: s}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "%s received: draining (up to %s)\n", sig, *drainTimeout)
		code := 0
		if derr := s.Drain(*drainTimeout); derr != nil {
			fmt.Fprintln(stderr, "warning:", derr)
			code = 1
		}
		// The pool is stopped; now let in-flight HTTP responses flush and
		// close the listener.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := httpSrv.Shutdown(shutdownCtx); serr != nil {
			fmt.Fprintln(stderr, "warning: http shutdown:", serr)
		}
		<-served
		fmt.Fprintln(stderr, "drained, exiting")
		return code
	case err := <-served:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}
}
