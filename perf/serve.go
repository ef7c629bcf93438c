package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/policy"
	"getm/internal/serve"
	"getm/internal/stats"
	"getm/internal/store"
)

// serve-sweep replays the traffic of the repository's service client,
// getm-sweep -server, running the policy-grid sweep the README shows at
// scale 0.25 on the grid's default benchmarks with two workers
// (`getm-sweep -policy-grid -scale 0.25 -workers 2 -server URL`) against
// getm-serve in process, with its default configuration (one worker per
// CPU) and a store in a scratch directory. Each sweep posts its 24 cells,
// the request bodies getm-sweep builds, every implementable point of
// the protocol policy matrix on ht-h and atm, as synchronous
// POST /v1/runs. Every cell is new to the service, so each is a write: a
// simulation, a write-behind put and a batched store flush. The sweep then
// runs again, as a user reruns a finished or interrupted sweep to resume
// it, and the service answers all 24 cells from its cache: the reads. A
// round is one sweep and its rerun; each round sweeps a new seed.
const (
	sweepScale   = 0.25
	sweepConc    = 8 // getm-sweep's default -conc
	sweepClients = 2
	// sweepWarmup rounds follow set-up, checked but not timed.
	sweepWarmup = 2
	// sweepPerUnit rounds run between two host probes, about a quarter of a
	// second.
	sweepPerUnit = 2
	// idlePoll is how often the quiesce reads /metrics.
	idlePoll = 10 * time.Millisecond
)

var sweepBenches = []string{"ht-h", "atm"}

// serveRig is one running service and its two clients.
type serveRig struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	seed    uint64 // -seed
	cells   []serve.RunSpec
	clients []*http.Client
	rounds  int
	totals  *stats.Metrics // the metrics of the set-up round's sweep, merged
}

// roundResult is one round's ops. lat holds one latency per op: the sweep's
// cells, then the rerun's, in cell order.
type roundResult struct {
	lat    []float64
	failed int
	cycles uint64 // simulated by the sweep
	wall   time.Duration
	sweep  []json.RawMessage // each cell's metrics as the sweep returned them
}

// answer is the part of a serve.Response the checks read; the metrics stay
// raw so that a rerun can be compared byte for byte.
type answer struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Truncated bool            `json:"truncated"`
	Error     string          `json:"error"`
	Metrics   json.RawMessage `json:"metrics"`
}

// sweepCells lists one sweep's cells the way getm-sweep -policy-grid does:
// every valid policy, each on every benchmark. The seed is set per round.
func sweepCells(scale float64) []serve.RunSpec {
	var cells []serve.RunSpec
	for _, p := range policy.Valid() {
		for _, b := range sweepBenches {
			cells = append(cells, serve.RunSpec{Policy: p.String(), Benchmark: b, Scale: scale, Conc: sweepConc})
		}
	}
	return cells
}

// roundSeed is the workload seed of a round: distinct for every round of a
// run, and derived from -seed.
func roundSeed(seed uint64, round int) uint64 {
	return (seed%1_000_000+1)<<20 | uint64(round)
}

// startServe starts a service and runs its first round, the set-up.
func startServe(o options, spans bool) (*serveRig, error) {
	dir, err := os.MkdirTemp(o.workdir, "serve-store-")
	if err != nil {
		return nil, err
	}
	st := store.Open(dir)
	if err := st.Degraded(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	scale := sweepScale
	if o.tiny {
		scale = 0.01
	}
	srv := serve.New(serve.Config{Store: st, Spans: spans})
	rig := &serveRig{dir: dir, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), seed: o.seed, cells: sweepCells(scale), totals: stats.NewMetrics()}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	for i := 0; i < sweepClients; i++ {
		rig.clients = append(rig.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	rr := rig.round()
	if rr.failed > 0 {
		return nil, errors.Join(fmt.Errorf("set-up round: %d of %d ops failed", rr.failed, len(rr.lat)), rig.close())
	}
	for _, raw := range rr.sweep {
		m := stats.NewMetrics()
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, errors.Join(fmt.Errorf("set-up round: %w", err), rig.close())
		}
		rig.totals.Merge(m)
	}
	return rig, nil
}

func (rig *serveRig) post(c *http.Client, body []byte) (int, []byte, error) {
	resp, err := c.Post(rig.url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// close stops the HTTP server, drains the service (its final flush makes
// every acknowledged result durable) and removes the store.
func (rig *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := rig.hs.Shutdown(ctx)
	if serr := <-rig.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, rig.srv.Drain(30*time.Second))
	for _, c := range rig.clients {
		c.CloseIdleConnections()
	}
	return errors.Join(err, os.RemoveAll(rig.dir))
}

// round runs one sweep of a new seed and its rerun. The clients take the
// cells in order, each sending the next only after its previous answer. A
// sweep answer must be a complete run that committed transactions; a rerun
// answer must name the same run and carry the same metrics, byte for byte.
func (rig *serveRig) round() roundResult {
	seed := roundSeed(rig.seed, rig.rounds)
	rig.rounds++
	n := len(rig.cells)
	rr := roundResult{lat: make([]float64, 2*n), sweep: make([]json.RawMessage, n)}
	ids := make([]string, n)
	var failed atomic.Int64
	var cycles atomic.Uint64
	var report sync.Once
	start := time.Now()
	for rerun := 0; rerun < 2; rerun++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range rig.clients {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					sp := rig.cells[i]
					sp.Seed = seed
					body, err := json.Marshal(sp)
					if err != nil {
						panic(err) // a RunSpec always marshals
					}
					t0 := time.Now()
					status, resp, err := rig.post(c, body)
					rr.lat[rerun*n+i] = ms(time.Since(t0))
					var a answer
					ok := err == nil && status == http.StatusOK && json.Unmarshal(resp, &a) == nil &&
						a.Status == "done" && !a.Truncated && len(a.Metrics) > 0
					switch {
					case ok && rerun == 0:
						var m struct{ Commits, TotalCycles uint64 }
						ok = json.Unmarshal(a.Metrics, &m) == nil && m.Commits > 0
						ids[i], rr.sweep[i] = a.ID, a.Metrics
						cycles.Add(m.TotalCycles)
					case ok:
						ok = a.ID == ids[i] && bytes.Equal(a.Metrics, rr.sweep[i])
					}
					if !ok {
						failed.Add(1)
						report.Do(func() {
							fmt.Fprintf(os.Stderr, "perf: serve-sweep: %s (rerun %v): status %d err %v: %.200s\n", body, rerun == 1, status, err, resp)
						})
					}
				}
			}(c)
		}
		wg.Wait()
	}
	rr.wall = time.Since(start)
	rr.failed = int(failed.Load())
	rr.cycles = cycles.Load()
	return rr
}

func (r *result) addRound(rr roundResult) {
	r.attempted += len(rr.lat)
	r.failed += rr.failed
}

// idle returns once the service has nothing left to do: no run queued or
// executing, and every simulated result flushed to the store.
func (rig *serveRig) idle() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := rig.scrape()
		if err != nil {
			return err
		}
		stored := m["getm_serve_coalesce_flushed_total"] + m["getm_serve_coalesce_absorbed_total"]
		if m["getm_serve_queue_depth"] == 0 && m["getm_serve_inflight"] == 0 && stored == m["getm_serve_simulated_total"] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service still busy after 30 s")
		}
		time.Sleep(idlePoll)
	}
}

func runServe(o options) (*result, error) {
	r := newResult("serve-sweep")
	rig, setups, err := timeSetup(o, func() (*serveRig, error) { return startServe(o, false) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	err = measureServe(o, r, rig, setups)
	return r, errors.Join(err, rig.close())
}

func measureServe(o options, r *result, rig *serveRig, setups []float64) error {
	warmup := sweepWarmup
	if o.tiny {
		warmup = 0
	}
	for i := 0; i < warmup; i++ {
		r.addRound(rig.round())
	}
	if !o.trace {
		groups := make([]*series, 2*len(rig.cells))
		for i := range groups {
			groups[i] = &series{}
		}
		probe := newHostProbe(sweepClients, rig.idle)
		a0 := allocated()
		run, err := probed(o.window, probe, 1, func(unit int) time.Duration {
			var w time.Duration
			for k := 0; k < sweepPerUnit; k++ {
				rr := rig.round()
				r.addRound(rr)
				for i, x := range rr.lat {
					groups[i].add(x, unit)
				}
				w += rr.wall
			}
			return w
		})
		if err != nil {
			return err
		}
		return r.endToEnd(groups, run, allocated()-a0, setups, probe)
	}

	// Traced run, phase 1: the untraced service under the CPU profiler.
	half := o.window / 2
	err := profileCPU(r, o.workdir, func() error {
		for start := time.Now(); time.Since(start) < half; {
			r.addRound(rig.round())
		}
		return nil
	})
	if err != nil {
		return err
	}
	recordSimCounts(r, rig.totals)

	// Phase 2: a second service with lifecycle spans and engine trace
	// capture on; rounds alternate between the two, and the traced one's
	// /metrics deltas give the serve and store counters.
	traced, err := startServe(o, true)
	if err != nil {
		return err
	}
	err = measureTracedServe(r, rig, traced, warmup, half)
	return errors.Join(err, traced.close())
}

func measureTracedServe(r *result, rig, traced *serveRig, warmup int, d time.Duration) error {
	for i := 0; i < warmup; i++ {
		r.addRound(traced.round())
	}
	before, err := traced.scrape()
	if err != nil {
		return err
	}
	var cycles uint64
	var nU int
	var wallU time.Duration
	traceOverhead(r, d, func() (int, time.Duration) {
		rr := rig.round()
		r.addRound(rr)
		cycles, nU, wallU = cycles+rr.cycles, nU+len(rr.lat), wallU+rr.wall
		return len(rr.lat), rr.wall
	}, func() (int, time.Duration) {
		rr := traced.round()
		r.addRound(rr)
		return len(rr.lat), rr.wall
	})
	r.set("gpu.kcycles_per_s", float64(cycles)/wallU.Seconds()/1e3, nU)
	after, err := traced.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	requests := delta("getm_serve_requests_total")
	r.set("serve.dedupe_ratio", delta("getm_serve_deduped_total")/requests, int(requests))
	r.set("serve.simulated", delta("getm_serve_simulated_total"), 0)
	r.set("serve.shed", delta("getm_serve_rejected_total"), 0)
	r.set("store.absorbed", delta("getm_serve_coalesce_absorbed_total"), 0)
	for metric, series := range map[string]string{
		"serve.queue_ms_p99":   `getm_serve_stage_latency_seconds{stage="queue",quantile="0.99"}`,
		"serve.sim_ms_p99":     `getm_serve_stage_latency_seconds{stage="sim",quantile="0.99"}`,
		"serve.persist_ms_p99": `getm_serve_stage_latency_seconds{stage="persist",quantile="0.99"}`,
		"store.flush_ms_p99":   `getm_serve_coalesce_flush_latency_seconds{quantile="0.99"}`,
	} {
		v, ok := after[series]
		if !ok {
			return fmt.Errorf("/metrics has no %s", series)
		}
		r.set(metric, v*1e3, 0)
	}
	return nil
}

// scrape reads the service's /metrics exposition into series -> value.
func (rig *serveRig) scrape() (map[string]float64, error) {
	resp, err := rig.clients[0].Get(rig.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
