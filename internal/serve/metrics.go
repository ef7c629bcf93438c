package serve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/stats"
)

// clientCardinality bounds the per-client counter table; clients beyond the
// bound aggregate under the "_other" label so an id-cardinality attack
// cannot grow the exposition (or server memory) without bound.
const clientCardinality = 64

// clientOverflow is the label absorbing clients beyond clientCardinality.
const clientOverflow = "_other"

// policyCardinality bounds the per-policy counter table. The valid label set
// is small by construction — the 12 implementable matrix points plus fglock —
// but the table keeps the same defensive overflow discipline as the client
// table so no future label source can grow the exposition without bound.
const policyCardinality = 16

// clientStat is one client's request accounting.
type clientStat struct {
	requests int64
	shed     int64
}

// metricsSet is the server's observable state, exposed as a Prometheus-style
// text exposition on /metrics. Names follow the Prometheus conventions the
// lint test enforces: counters end in _total, durations are base-unit
// seconds, sizes are bytes, and every family carries HELP and TYPE. Latency
// distributions are exposed as summaries (quantile-labeled series plus _sum
// and _count), computed at scrape time from fixed-size µs log histograms
// (stats.LogHist), so the serving hot path records a sample without
// allocating. The run summary and the sim stage share one histogram: a run's
// end-to-end latency (dequeue to completion) is its execute stage.
type metricsSet struct {
	requests        atomic.Int64 // run submissions received (batch items count individually)
	batches         atomic.Int64 // POST /v1/runs/batch calls received
	rejected        atomic.Int64 // shed: 429 or 503-draining
	quotaRejected   atomic.Int64 // shed specifically by per-client quota
	deduped         atomic.Int64 // joined an identical live/completed job
	completed       atomic.Int64 // runs finished without error
	failed          atomic.Int64 // runs finished with error
	truncated       atomic.Int64 // runs returning partial (truncated) metrics
	storeStatusHits atomic.Int64 // GET /v1/runs/{id} answered from the store
	sloSlow         atomic.Int64 // runs slower than the p99 objective
	hedges          atomic.Int64 // hedge requests launched (coordinator)
	storeFills      atomic.Int64 // store records filled from cluster peers

	// sloP99 is the latency objective the burn counter compares against.
	sloP99 time.Duration

	mu       sync.Mutex
	queueLat stats.LogHist // fair-queue wait, µs
	simLat   stats.LogHist // execute (simulate or cache/store load), µs
	persLat  stats.LogHist // persist hook, µs
	flushLat stats.LogHist // coalescer batched commit, µs
	httpLat  stats.LogHist // HTTP request (submit or batch), µs

	clientMu sync.Mutex
	clients  map[string]*clientStat

	policyMu sync.Mutex
	policies map[string]int64 // valid submissions per full policy tuple
}

func newMetricsSet() *metricsSet {
	return &metricsSet{
		clients:  make(map[string]*clientStat),
		policies: make(map[string]int64),
	}
}

// observe records one finished run: its outcome counters and, in the shared
// run/sim histogram, its latency.
func (m *metricsSet) observe(d time.Duration, res *stats.Metrics, err error) {
	if err != nil {
		m.failed.Add(1)
	} else {
		m.completed.Add(1)
	}
	if res != nil && res.Truncated {
		m.truncated.Add(1)
	}
	if m.sloP99 > 0 && d > m.sloP99 {
		m.sloSlow.Add(1)
	}
	m.mu.Lock()
	m.simLat.Add(d.Microseconds())
	m.mu.Unlock()
}

// observeStages records the stages of one finished run around its execute
// stage (which observe records). The histograms are fixed-size log-bucketed
// structs, so the call allocates nothing.
func (m *metricsSet) observeStages(queue, persist time.Duration) {
	m.mu.Lock()
	m.queueLat.Add(queue.Microseconds())
	m.persLat.Add(persist.Microseconds())
	m.mu.Unlock()
}

// observeFlush records one coalescer commit.
func (m *metricsSet) observeFlush(d time.Duration) {
	m.mu.Lock()
	m.flushLat.Add(d.Microseconds())
	m.mu.Unlock()
}

// observeHTTP records one served HTTP request (submit or batch), including
// any time spent waiting on a synchronous run.
func (m *metricsSet) observeHTTP(d time.Duration) {
	m.mu.Lock()
	m.httpLat.Add(d.Microseconds())
	m.mu.Unlock()
}

// clientStatFor resolves (creating if the table has room) a client's row;
// overflow collapses onto the "_other" row. Existing clients cost a map
// lookup under a short lock — no allocation.
func (m *metricsSet) clientStatFor(client string) *clientStat {
	cs, ok := m.clients[client]
	if !ok {
		if len(m.clients) >= clientCardinality {
			client = clientOverflow
			if cs, ok = m.clients[client]; ok {
				return cs
			}
		}
		cs = &clientStat{}
		m.clients[client] = cs
	}
	return cs
}

// clientRequest counts n received submissions for the client.
func (m *metricsSet) clientRequest(client string, n int64) {
	m.clientMu.Lock()
	m.clientStatFor(client).requests += n
	m.clientMu.Unlock()
}

// policyRequest counts one valid submission for the policy tuple label.
func (m *metricsSet) policyRequest(label string) {
	m.policyMu.Lock()
	if _, ok := m.policies[label]; !ok && len(m.policies) >= policyCardinality {
		label = clientOverflow
	}
	m.policies[label]++
	m.policyMu.Unlock()
}

// clientShed counts n shed submissions for the client.
func (m *metricsSet) clientShed(client string, n int64) {
	m.clientMu.Lock()
	m.clientStatFor(client).shed += n
	m.clientMu.Unlock()
}

func (m *metricsSet) meanLatencyMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simLat.Mean() / 1e3
}

// labelEscape escapes a Prometheus label value.
func labelEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// summaryQuantiles are the quantile labels every latency summary exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// summaryStat is one pre-scaled summary series: quantile values, sum, and
// count, all in the exposition's base unit (seconds).
type summaryStat struct {
	label string // extra label pair, e.g. `stage="queue"` (may be empty)
	q     [3]float64
	sum   float64
	count uint64
}

// logHistSummary converts a µs LogHist into a seconds summaryStat.
func logHistSummary(label string, h *stats.LogHist) summaryStat {
	s := summaryStat{label: label, count: h.Total()}
	for i, q := range summaryQuantiles {
		s.q[i] = h.Quantile(q) / 1e6
	}
	s.sum = h.Mean() * float64(h.Total()) / 1e6
	return s
}

// write renders the exposition. Gauges come from the pool (queue depth,
// busy workers, runner aggregates), the coalescer, the quota table, and the
// Go runtime; summaries from the scrape-time histogram reads; everything
// else from the counters.
func (m *metricsSet) write(w io.Writer, s *Server) {
	p := s.pool
	m.mu.Lock()
	run := logHistSummary("", &m.simLat) // a run's latency is its sim stage
	queue := logHistSummary(`stage="queue"`, &m.queueLat)
	simS := logHistSummary(`stage="sim"`, &m.simLat)
	pers := logHistSummary(`stage="persist"`, &m.persLat)
	flush := logHistSummary("", &m.flushLat)
	httpS := logHistSummary("", &m.httpLat)
	m.mu.Unlock()

	draining := 0
	if p.draining.Load() {
		draining = 1
	}

	g := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	summary := func(name, help string, stats ...summaryStat) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for _, st := range stats {
			sep := ""
			if st.label != "" {
				sep = ","
			}
			for i, q := range summaryQuantiles {
				fmt.Fprintf(w, "%s{%s%squantile=\"%v\"} %v\n", name, st.label, sep, q, st.q[i])
			}
			brace := ""
			if st.label != "" {
				brace = "{" + st.label + "}"
			}
			fmt.Fprintf(w, "%s_sum%s %v\n", name, brace, st.sum)
			fmt.Fprintf(w, "%s_count%s %d\n", name, brace, st.count)
		}
	}

	g("getm_serve_queue_depth", "requests waiting for a worker", p.fq.len())
	g("getm_serve_queue_capacity", "wait-queue slots before load shedding", p.fq.capacity)
	g("getm_serve_workers", "worker pool size", p.s.cfg.Workers)
	g("getm_serve_inflight", "workers executing a run right now", p.running.Load())
	g("getm_serve_draining", "1 while a graceful drain is in progress", draining)
	g("getm_serve_fair_clients", "clients with queued work in the fair queue", p.fq.clientCount())
	g("getm_serve_quota_clients", "client token buckets currently tracked", s.quotas.size())
	g("getm_serve_goroutines", "goroutines in the serving process", runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g("getm_serve_heap_alloc_bytes", "bytes of allocated heap objects (runtime.MemStats.HeapAlloc)", ms.HeapAlloc)
	c("getm_serve_requests_total", "run submissions received (batch items count individually)", m.requests.Load())
	c("getm_serve_batches_total", "POST /v1/runs/batch calls received", m.batches.Load())
	c("getm_serve_rejected_total", "submissions shed (quota, queue full, or draining)", m.rejected.Load())
	c("getm_serve_quota_rejected_total", "submissions shed by per-client quota", m.quotaRejected.Load())
	c("getm_serve_deduped_total", "submissions joined onto an identical job", m.deduped.Load())
	c("getm_serve_completed_total", "runs finished without error", m.completed.Load())
	c("getm_serve_failed_total", "runs finished with an error", m.failed.Load())
	c("getm_serve_truncated_total", "runs returning partial (truncated) metrics", m.truncated.Load())
	c("getm_serve_simulated_total", "simulations actually executed (cache and store hits excluded)", int64(p.runner.Simulated()))
	c("getm_serve_store_hits_total", "results served from the on-disk store", int64(p.runner.StoreHits()))
	c("getm_serve_store_status_hits_total", "GET /v1/runs answered durably from the store", m.storeStatusHits.Load())
	if coal := s.coal; coal != nil {
		g("getm_serve_coalesce_pending", "completed results awaiting the next batched store flush", coal.pendingCount())
		c("getm_serve_coalesce_flushes_total", "batched store commits issued", coal.flushes.Load())
		c("getm_serve_coalesce_flushed_total", "records written across all batched commits", coal.flushed.Load())
		c("getm_serve_coalesce_absorbed_total", "store writes absorbed by in-memory coalescing", coal.absorbed.Load())
		summary("getm_serve_coalesce_flush_latency_seconds", "batched store commit latency", flush)
	}
	summary("getm_serve_run_latency_seconds", "end-to-end run latency (dequeue to completion)", run)
	summary("getm_serve_http_latency_seconds", "HTTP request latency (submit and batch, including sync waits)", httpS)
	summary("getm_serve_stage_latency_seconds", "per-stage run latency: fair-queue wait, execute, persist hook", queue, simS, pers)

	// Per-client accounting, bounded at clientCardinality rows plus the
	// overflow bucket; rows render in sorted order so scrapes are stable.
	m.clientMu.Lock()
	names := make([]string, 0, len(m.clients))
	for name := range m.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]clientStat, len(names))
	for i, name := range names {
		rows[i] = *m.clients[name]
	}
	m.clientMu.Unlock()
	fmt.Fprintf(w, "# HELP getm_serve_client_requests_total run submissions received per client\n# TYPE getm_serve_client_requests_total counter\n")
	for i, name := range names {
		fmt.Fprintf(w, "getm_serve_client_requests_total{client=\"%s\"} %d\n", labelEscape(name), rows[i].requests)
	}
	fmt.Fprintf(w, "# HELP getm_serve_client_shed_total submissions shed per client (quota, queue, or draining)\n# TYPE getm_serve_client_shed_total counter\n")
	for i, name := range names {
		fmt.Fprintf(w, "getm_serve_client_shed_total{client=\"%s\"} %d\n", labelEscape(name), rows[i].shed)
	}

	// Per-policy accounting: every valid submission counted under its full
	// matrix tuple (or "fglock"), bounded at policyCardinality rows.
	m.policyMu.Lock()
	pnames := make([]string, 0, len(m.policies))
	for name := range m.policies {
		pnames = append(pnames, name)
	}
	sort.Strings(pnames)
	pcounts := make([]int64, len(pnames))
	for i, name := range pnames {
		pcounts[i] = m.policies[name]
	}
	m.policyMu.Unlock()
	fmt.Fprintf(w, "# HELP getm_serve_policy_requests_total valid run submissions received per protocol policy point\n# TYPE getm_serve_policy_requests_total counter\n")
	for i, name := range pnames {
		fmt.Fprintf(w, "getm_serve_policy_requests_total{policy=\"%s\"} %d\n", labelEscape(name), pcounts[i])
	}

	// SLO surface: targets as gauges, burn as counters — a dashboard derives
	// burn rate from (slow or shed) deltas over the request delta without
	// hard-coding objectives.
	g("getm_serve_slo_latency_target_seconds", "p99 run-latency objective the burn counter compares against", m.sloP99.Seconds())
	g("getm_serve_slo_shed_target_ratio", "shed-ratio objective (shed/requests) for burn-rate dashboards", s.cfg.SLOShedTarget)
	c("getm_serve_slo_slow_runs_total", "runs slower than the p99 latency objective", m.sloSlow.Load())

	// Cluster surface: one row per configured peer, labels bounded by the
	// peer list itself (set at startup, never grown by traffic).
	if cl := s.cluster; cl != nil {
		g("getm_serve_cluster_peers", "configured cluster peers", len(cl.peers))
		c("getm_serve_hedges_total", "hedged forwards launched after the p99-derived delay", m.hedges.Load())
		c("getm_serve_store_peer_fills_total", "store records filled from cluster peers on local misses", m.storeFills.Load())
		peerGauge := func(name, help string, v func(*peer) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, p := range cl.peers {
				fmt.Fprintf(w, "%s{peer=\"%s\"} %d\n", name, labelEscape(p.name), v(p))
			}
		}
		peerCounter := func(name, help string, v func(*peer) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, p := range cl.peers {
				fmt.Fprintf(w, "%s{peer=\"%s\"} %d\n", name, labelEscape(p.name), v(p))
			}
		}
		peerGauge("getm_serve_peer_healthy", "1 while the peer answers health probes and is not draining",
			func(p *peer) int64 {
				if p.healthy.Load() {
					return 1
				}
				return 0
			})
		peerGauge("getm_serve_peer_headroom", "queue slots the peer last reported free",
			func(p *peer) int64 { return p.headroom.Load() })
		peerCounter("getm_serve_peer_forwarded_total", "submissions routed to the peer",
			func(p *peer) int64 { return p.forwarded.Load() })
		peerCounter("getm_serve_peer_stolen_total", "submissions the peer absorbed because the rendezvous owner was saturated",
			func(p *peer) int64 { return p.stolen.Load() })
		peerCounter("getm_serve_peer_hedged_total", "hedge requests sent to the peer",
			func(p *peer) int64 { return p.hedged.Load() })
		peerCounter("getm_serve_peer_failed_total", "transport failures talking to the peer",
			func(p *peer) int64 { return p.failed.Load() })
		peerCounter("getm_serve_peer_fills_total", "store records fetched from the peer",
			func(p *peer) int64 { return p.fills.Load() })
	}

	spansEnabled := 0
	if s.spans != nil {
		spansEnabled = 1
	}
	g("getm_serve_spans_enabled", "1 while the request-lifecycle span recorder is on", spansEnabled)
	if s.spans != nil {
		c("getm_serve_span_records_total", "lifecycle span records emitted", int64(s.spans.total()))
		c("getm_serve_span_dropped_total", "lifecycle span records overwritten by the ring", int64(s.spans.dropped()))
	}
}
